//===- perfbench/src/RouterKeyed.cpp - router_keyed workload -------------===//
//
// Single-copy router over 3 shards, closed loop, 4 callers. Each round is
// a put followed by a take on the caller's own concrete key; the callers'
// keys are drawn from the seed so that every shard homes at least one.
// Stresses dist (SpaceRouter, Shard) and net; bypasses Replica and
// wildcard fan-out.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>

namespace perfbench {
namespace {

constexpr int Callers = 4;
constexpr std::size_t Shards = 3;
constexpr std::uint64_t TakeBudgetNanos = 5'000'000'000;

struct Caller {
  std::int64_t Key = 0;
  SplitMix64 Rng{0};
  long long PutSum = 0, TakeSum = 0;
  std::uint64_t Mismatches = 0;
  /// A take failed: the caller's token stays resident for the final drain.
  bool Stopped = false;
};

Tuple tokenTemplate(std::int64_t Key) {
  return makeTuple(Key, "tok", formal(0));
}

/// Concrete keys drawn from the seed, caller C homed on shard C % Shards.
std::vector<std::int64_t> pickKeys(SplitMix64 &Rng) {
  std::vector<std::int64_t> Keys;
  while (Keys.size() != static_cast<std::size_t>(Callers)) {
    const std::int64_t K = Rng.value();
    const auto Home = dist::routeKey(makeTuple(K, "tok", 0));
    if (Home && *Home % Shards == Keys.size() % Shards &&
        std::find(Keys.begin(), Keys.end(), K) == Keys.end())
      Keys.push_back(K);
  }
  return Keys;
}

} // namespace

Result runRouterKeyed(const Options &O) {
  Result R;
  SplitMix64 Seeder(O.Seed);
  const std::vector<std::int64_t> Keys = pickKeys(Seeder);

  forEachMachine(O, [&](VirtualMachine &Vm, IoService &Io, bool Measured,
                        std::uint64_t T0) {
    ShardRing Ring;
    if (!Ring.build(Vm, Io, Shards, 1)) {
      R.gate("shard servers started", false);
      Ring.teardown();
      return;
    }
    // Set-up ends here, before the first op. One untimed round trip then
    // checks the ring end to end.
    R.SetupSecs.push_back(secondsSince(T0));
    std::atomic<std::uint64_t> MatchCalls{1};
    Match Warm;
    const bool WarmOk =
        Ring.Router->put(makeTuple(Keys[0], "tok", 0)) == dist::Status::Ok &&
        Ring.Router->takeUntil(tokenTemplate(Keys[0]),
                               Deadline::in(TakeBudgetNanos),
                               Warm) == dist::Status::Ok;
    if (!Measured || !WarmOk) {
      if (!WarmOk)
        R.gate("warm-up round trip", false);
      Ring.teardown();
      return;
    }

    std::vector<Caller> Cs(Callers);
    for (int C = 0; C != Callers; ++C) {
      Cs[C].Key = Keys[C];
      Cs[C].Rng = SplitMix64(Seeder.next());
    }
    SpanLog Spans(100'000);
    Probe P{&Vm, &Io, Ring.Router.get(), nullptr, Ring.Spaces};

    measurePhases(O, R, P, Callers, Spans,
                  [&](int L, std::uint64_t, std::uint64_t Stop,
                      LaneLog &Log) {
      Caller &C = Cs[L];
      while (!C.Stopped && nowNanos() < Stop) {
        const std::int64_t V = C.Rng.value();
        const std::uint64_t Begin = nowNanos();
        Request Req(Log, "round", Begin);
        const bool PutOk = Ring.Router->put(makeTuple(C.Key, "tok", V)) ==
                           dist::Status::Ok;
        const std::uint64_t T1 = nowNanos();
        Log.op(OpPut, Begin, T1, PutOk);
        Req.child("dist.SpaceRouter.put", Begin, T1);
        if (!PutOk)
          continue;
        C.PutSum += V;
        Match M;
        MatchCalls.fetch_add(1, std::memory_order_relaxed);
        const bool TakeOk =
            Ring.Router->takeUntil(tokenTemplate(C.Key),
                                   Deadline::in(TakeBudgetNanos),
                                   M) == dist::Status::Ok;
        const std::uint64_t T2 = nowNanos();
        Log.op(OpTake, T1, T2, TakeOk);
        Req.child("dist.SpaceRouter.takeUntil", T1, T2);
        if (!TakeOk) {
          C.Stopped = true;
          break;
        }
        const std::int64_t Got = M.binding(0).asFixnum();
        C.TakeSum += Got;
        if (Got != V)
          ++C.Mismatches;
      }
    });

    // Drain what a failed take left behind, then check the books.
    for (Caller &C : Cs)
      while (C.Stopped) {
        Match M;
        MatchCalls.fetch_add(1, std::memory_order_relaxed);
        if (Ring.Router->takeUntil(tokenTemplate(C.Key),
                                   Deadline::in(100'000'000),
                                   M) != dist::Status::Ok)
          break;
        C.TakeSum += M.binding(0).asFixnum();
      }
    long long PutSum = 0, TakeSum = 0;
    std::uint64_t Mismatches = 0;
    for (const Caller &C : Cs) {
      PutSum += C.PutSum;
      TakeSum += C.TakeSum;
      Mismatches += C.Mismatches;
    }
    R.gate("every take returns the value its round put", Mismatches == 0);
    R.gate("sum of taken values equals sum of put values", PutSum == TakeSum);
    R.gate("router pendingLegs() == 0 at rest", Ring.settle());
    const dist::RouterStatsSnapshot S = Ring.Router->statsSnapshot();
    // Keyed registrations arm one leg each (not counted in Fanouts).
    R.gate("router ledger balances (legs armed == delivered + retracted + "
           "orphaned)",
           S.Fanouts + MatchCalls.load() ==
               S.Deliveries + S.Retracts + S.Orphans);
    R.gate("every shard space drains to size() == 0",
           Ring.residentTuples() == 0);
    if (O.Trace)
      writeTraces(O, Spans, Vm);
    Ring.teardown();
  });
  return R;
}

} // namespace perfbench
