//===- perfbench/src/ReplicatedMix.cpp - replicated_mix workload ---------===//
//
// Replication factor 2 over 3 shards, open loop: 4 sender lanes issue a
// seeded op mix on a fixed schedule, and each op is timed from its due
// time, so a slow path builds a queue instead of lowering the load. The
// mix: puts that keep a working set of resident tuples, readUntil of
// resident keys, keyed takes that drain them, and a minority of wildcard
// takes (3 legs armed, 2 retracted). Every put pays a backup forward and
// every take a tombstone forward.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace perfbench {
namespace {

constexpr int Lanes = 4;
constexpr std::size_t Shards = 3;
/// The frozen offered load, set once from this mix's closed-loop
/// capacity on the seed library (see README.md).
constexpr double OfferedOpsPerSec = 200.0;
/// Resident tuples per lane the mix hovers around (4 lanes: 2048).
constexpr std::size_t WorkingSetPerLane = 512;
constexpr std::size_t Slack = 64;
/// Wildcard tuples a lane keeps resident at most.
constexpr std::size_t MaxWild = 4;
constexpr std::uint64_t MatchBudgetNanos = 5'000'000'000;

using Pair = std::pair<std::int64_t, std::int64_t>; // (key, value)

/// One sender's deterministic view of what it has resident.
struct Sender {
  int Lane = 0;
  SplitMix64 Rng{0};
  std::int64_t NextKey = 0;
  std::vector<Pair> Res;  ///< (key, value) of (key, "res", value) tuples
  std::vector<Pair> Wild; ///< (key, value) of (key, "wc", lane, value)
  long long PutSum = 0, TakeSum = 0;
  std::uint64_t Mismatches = 0;
  std::uint64_t MatchCalls = 0, WildCalls = 0;

  std::int64_t freshKey() {
    const std::int64_t K = NextKey;
    NextKey += Lanes;
    return K;
  }
};

enum class MixOp { PutRes, Read, TakeRes, PutWild, TakeWild };

/// The next op of \p S's seeded sequence. Depends only on the generator
/// and the lane's own resident counts, never on timing.
MixOp nextOp(Sender &S) {
  const std::uint64_t U = S.Rng.below(100);
  if (U < 5)
    return S.Wild.size() < MaxWild ? MixOp::PutWild : MixOp::TakeWild;
  if (U < 10)
    return S.Wild.empty() ? MixOp::PutWild : MixOp::TakeWild;
  const std::size_t N = S.Res.size();
  if (U < 40)
    return N >= WorkingSetPerLane + Slack ? MixOp::TakeRes : MixOp::PutRes;
  if (U < 70)
    return N == 0 ? MixOp::PutRes : MixOp::Read;
  return N <= WorkingSetPerLane - Slack ? MixOp::PutRes : MixOp::TakeRes;
}

Tuple resTemplate(std::int64_t Key) { return makeTuple(Key, "res", formal(0)); }

Tuple wildTemplate(int Lane) {
  return makeTuple(formal(0), "wc", Lane, formal(1));
}

/// Issues \p Op for \p S, records it in \p Log as timed from \p DueNs, and
/// updates the sender's books.
void issue(dist::SpaceRouter &Router, Sender &S, MixOp Op, LaneLog &Log,
           std::uint64_t DueNs) {
  const std::uint64_t Begin = nowNanos();
  Request Req(Log, "mix_op", Begin);
  switch (Op) {
  case MixOp::PutRes:
  case MixOp::PutWild: {
    const std::int64_t V = S.Rng.value();
    const bool Wild = Op == MixOp::PutWild;
    const std::int64_t K = Wild ? S.Rng.value() : S.freshKey();
    const bool Ok = (Wild ? Router.put(makeTuple(K, "wc", S.Lane, V))
                          : Router.put(makeTuple(K, "res", V))) ==
                    dist::Status::Ok;
    const std::uint64_t End = nowNanos();
    Log.op(OpPut, DueNs, End, Ok);
    Req.child("dist.SpaceRouter.put", Begin, End);
    if (Ok) {
      (Wild ? S.Wild : S.Res).push_back({K, V});
      S.PutSum += V;
    }
    return;
  }
  case MixOp::Read:
  case MixOp::TakeRes: {
    const bool Take = Op == MixOp::TakeRes;
    const std::size_t I = S.Rng.below(S.Res.size());
    const Pair Want = S.Res[I];
    Match M;
    ++S.MatchCalls;
    const Deadline D = Deadline::in(MatchBudgetNanos);
    const bool Ok =
        (Take ? Router.takeUntil(resTemplate(Want.first), D, M)
              : Router.readUntil(resTemplate(Want.first), D, M)) ==
        dist::Status::Ok;
    const std::uint64_t End = nowNanos();
    Log.op(Take ? OpTake : OpRead, DueNs, End, Ok);
    Req.child(Take ? "dist.SpaceRouter.takeUntil"
                   : "dist.SpaceRouter.readUntil",
              Begin, End);
    if (!Ok)
      return;
    if (M.binding(0).asFixnum() != Want.second)
      ++S.Mismatches;
    if (Take) {
      S.TakeSum += M.binding(0).asFixnum();
      S.Res[I] = S.Res.back();
      S.Res.pop_back();
    }
    return;
  }
  case MixOp::TakeWild: {
    Match M;
    ++S.MatchCalls;
    ++S.WildCalls;
    const bool Ok = Router.takeUntil(wildTemplate(S.Lane),
                                     Deadline::in(MatchBudgetNanos),
                                     M) == dist::Status::Ok;
    const std::uint64_t End = nowNanos();
    Log.op(OpWildTake, DueNs, End, Ok);
    Req.child("dist.SpaceRouter.takeUntil(wildcard)", Begin, End);
    if (!Ok)
      return;
    const Pair Got{M.binding(0).asFixnum(), M.binding(1).asFixnum()};
    auto It = std::find(S.Wild.begin(), S.Wild.end(), Got);
    if (It == S.Wild.end()) {
      ++S.Mismatches;
      return;
    }
    *It = S.Wild.back();
    S.Wild.pop_back();
    S.TakeSum += Got.second;
    return;
  }
  }
}

} // namespace

Result runReplicatedMix(const Options &O) {
  Result R;
  SplitMix64 Seeder(O.Seed);
  const std::int64_t KeyBase = Seeder.value();

  forEachMachine(O, [&](VirtualMachine &Vm, IoService &Io, bool Measured,
                        std::uint64_t T0) {
    ShardRing Ring;
    if (!Ring.build(Vm, Io, Shards, 2)) {
      R.gate("shard servers started", false);
      Ring.teardown();
      return;
    }
    // Set-up ends here, before the first op. One untimed round trip then
    // checks the ring end to end.
    R.SetupSecs.push_back(secondsSince(T0));
    Match Warm;
    const bool WarmOk =
        Ring.Router->put(makeTuple(KeyBase - 1, "res", 0)) ==
            dist::Status::Ok &&
        Ring.Router->takeUntil(resTemplate(KeyBase - 1),
                               Deadline::in(MatchBudgetNanos),
                               Warm) == dist::Status::Ok;
    if (!Measured || !WarmOk) {
      if (!WarmOk)
        R.gate("warm-up round trip", false);
      Ring.teardown();
      return;
    }

    std::vector<Sender> Ss(Lanes);
    for (int L = 0; L != Lanes; ++L) {
      Ss[L].Lane = L;
      Ss[L].Rng = SplitMix64(Seeder.next());
      Ss[L].NextKey = KeyBase + L;
    }
    // Fill the working set before any timing.
    (void)runLanes(Lanes, 0, nullptr,
                   [&](int L, std::uint64_t, std::uint64_t, LaneLog &Log) {
      while (Ss[L].Res.size() != WorkingSetPerLane)
        issue(*Ring.Router, Ss[L], MixOp::PutRes, Log, nowNanos());
    });

    SpanLog Spans(100'000);
    Probe P{&Vm, &Io, Ring.Router.get(), &Ring.Reps, Ring.Spaces};
    constexpr double IntervalNs = 1e9 * Lanes / OfferedOpsPerSec;
    measurePhases(O, R, P, Lanes, Spans,
                  [&](int L, std::uint64_t Start, std::uint64_t Stop,
                      LaneLog &Log) {
      Sender &S = Ss[L];
      for (std::uint64_t K = 0;; ++K) {
        // Lane L's k-th op is due at Start + (k + L/Lanes) intervals.
        const std::uint64_t Due =
            Start + static_cast<std::uint64_t>(
                        (static_cast<double>(K) +
                         static_cast<double>(L) / Lanes) *
                        IntervalNs);
        if (Due >= Stop)
          break;
        if (nowNanos() < Due)
          sleepUntil(Due);
        Log.LateUs.add(static_cast<double>(nowNanos() - Due) / 1e3);
        issue(*Ring.Router, S, nextOp(S), Log, Due);
      }
    });

    // Drain every lane's residents, then check the books.
    (void)runLanes(Lanes, 0, nullptr,
                   [&](int L, std::uint64_t, std::uint64_t, LaneLog &Log) {
      Sender &S = Ss[L];
      while (!S.Res.empty() || !S.Wild.empty()) {
        const std::size_t Before = S.Res.size() + S.Wild.size();
        issue(*Ring.Router, S,
              S.Res.empty() ? MixOp::TakeWild : MixOp::TakeRes, Log,
              nowNanos());
        if (S.Res.size() + S.Wild.size() == Before)
          break; // a failed drain take: the size gate below reports it
      }
    });
    long long PutSum = 0, TakeSum = 0;
    std::uint64_t Mismatches = 0, MatchCalls = 1, WildCalls = 0;
    for (const Sender &S : Ss) {
      PutSum += S.PutSum;
      TakeSum += S.TakeSum;
      Mismatches += S.Mismatches;
      MatchCalls += S.MatchCalls;
      WildCalls += S.WildCalls;
    }
    R.gate("reads and takes return the value that was put", Mismatches == 0);
    R.gate("sum of taken values equals sum of put values", PutSum == TakeSum);
    R.gate("router pendingLegs() == 0 at rest", Ring.settle());
    const dist::RouterStatsSnapshot St = Ring.Router->statsSnapshot();
    // Keyed registrations arm one leg each; wildcard ones arm a leg per
    // shard, counted in Fanouts.
    R.gate("router ledger balances (legs armed == delivered + retracted + "
           "orphaned)",
           St.Fanouts + (MatchCalls - WildCalls) ==
               St.Deliveries + St.Retracts + St.Orphans);
    R.gate("Unreplicated == 0 at factor 2", St.Unreplicated == 0);
    R.gate("every shard space drains to size() == 0",
           Ring.residentTuples() == 0);
    if (O.Trace)
      writeTraces(O, Spans, Vm);
    Ring.teardown();
  });
  return R;
}

} // namespace perfbench
