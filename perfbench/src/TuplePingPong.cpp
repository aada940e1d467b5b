//===- perfbench/src/TuplePingPong.cpp - tuple_pingpong workload ---------===//
//
// In-process, no sockets, closed loop. 4 pingers each play against a
// ponger thread of their own through one TupleSpace. A round: the pinger
// puts (key, "ping", v, ...) and takes (key, "pong", ?w); the ponger takes
// the ping and puts (key, "pong", v + 1). Every template has a concrete
// key, so each take waits in a keyed bin and each put hands its tuple to
// a parked taker on another VP: tuple's keyed handoff and core's
// cross-VP wake-ups do all the work. Bypasses futures (sync), the
// farm's wildcard templates, net and dist.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

namespace perfbench {
namespace {

constexpr int Pairs = 4;
/// A wait past this is a missed wakeup: the partner answers in µs.
constexpr std::uint64_t TakeBudgetNanos = 2'000'000'000;

struct Pinger {
  std::int64_t Key = 0;
  SplitMix64 Rng{0};
  long long WantSum = 0, GotSum = 0;
  std::uint64_t Mismatches = 0;
  std::uint64_t Timeouts = 0; ///< pong takes that waited past their budget
};

/// Ponger loop: answer every ping on \p Key until the stop ping (-1).
/// Ping fields: key, "ping", value, flow, parent span, put time; pong
/// fields: key, "pong", value, put time. Its waits re-arm one slice at a
/// time, and a slice that misses its wakeup is counted.
void pong(TupleSpace &Ts, std::int64_t Key, SpanLog &Spans,
          std::uint32_t Tid) {
  for (;;) {
    std::optional<Match> M;
    while (!(M = takeWithin(Ts, [Key] {
               return makeTuple(Key, "ping", formal(0), formal(1), formal(2),
                                formal(3));
             }, 3, WaitSliceNanos)))
      ;
    const std::int64_t V = M->binding(0).asFixnum();
    if (V < 0)
      return;
    const auto Flow = static_cast<std::uint64_t>(M->binding(1).asFixnum());
    const auto Parent = static_cast<std::uint64_t>(M->binding(2).asFixnum());
    std::optional<obs::FlowScope> Scope;
    if (Flow)
      Scope.emplace(Flow);
    const std::uint64_t T0 = nowNanos();
    Ts.put(makeTuple(Key, "pong", V + 1, stampNow()));
    if (Flow)
      Spans.add({"tuple.TupleSpace.put(pong)", T0, nowNanos(), Spans.newId(),
                 Parent, Flow, Tid});
  }
}

/// One round trip on \p P's key. A pong take that runs past its budget
/// is counted (it fails the run) and re-armed, so the books still balance.
void playRound(TupleSpace &Ts, Pinger &P, LaneLog &Log) {
  const std::int64_t V = P.Rng.value();
  const std::uint64_t Begin = nowNanos();
  Request Req(Log, "round", Begin);
  Ts.put(makeTuple(P.Key, "ping", V, static_cast<std::int64_t>(Req.flow()),
                   static_cast<std::int64_t>(Req.spanId()), stampNow()));
  const std::uint64_t T1 = nowNanos();
  Log.op(OpPut, Begin, T1, true);
  Req.child("tuple.TupleSpace.put(ping)", Begin, T1);
  P.WantSum += V + 1;
  std::optional<Match> M;
  while (!(M = takeWithin(
               Ts,
               [&P] { return makeTuple(P.Key, "pong", formal(0), formal(1)); },
               1, TakeBudgetNanos))) {
    ++P.Timeouts;
    std::fprintf(stderr, "perfbench: pinger waited %.1f s for its pong\n",
                 TakeBudgetNanos / 1e9);
  }
  const std::uint64_t T2 = nowNanos();
  Log.op(OpTake, T1, T2, true);
  Req.child("tuple.TupleSpace.takeUntil(pong)", T1, T2);
  const std::int64_t Got = M->binding(0).asFixnum();
  P.GotSum += Got;
  if (Got != V + 1)
    ++P.Mismatches;
}

} // namespace

Result runTuplePingPong(const Options &O) {
  Result R;
  SplitMix64 Seeder(O.Seed);
  std::vector<std::int64_t> Keys;
  for (int P = 0; P != Pairs; ++P)
    Keys.push_back(Seeder.value() * Pairs + P); // distinct by residue
  std::uint64_t Unstopped = 0;

  forEachVm(O, [&](VirtualMachine &Vm, bool Measured, std::uint64_t T0) {
    TupleSpaceRef Ts = TupleSpace::create();
    SpanLog Spans(100'000);
    std::vector<ThreadRef> Pongers;
    for (int P = 0; P != Pairs; ++P)
      Pongers.push_back(ThreadController::forkThread(
          [&, P]() -> AnyValue {
            pong(*Ts, Keys[P], Spans, static_cast<std::uint32_t>(100 + P));
            return AnyValue(true);
          },
          LaneSpawn));
    // Set-up ends here, before the first op. One untimed round trip then
    // checks the pair end to end.
    R.SetupSecs.push_back(secondsSince(T0));
    Ts->put(makeTuple(Keys[0], "ping", 0, 0, 0, stampNow()));
    const std::optional<Match> Warm = takeWithin(
        *Ts, [&] { return makeTuple(Keys[0], "pong", formal(0), formal(1)); },
        1, TakeBudgetNanos);
    const bool WarmOk = Warm && Warm->binding(0).asFixnum() == 1;
    if (!WarmOk)
      R.gate("warm-up round trip", false);

    std::vector<Pinger> Ps(Pairs);
    if (Measured && WarmOk) {
      for (int P = 0; P != Pairs; ++P) {
        Ps[P].Key = Keys[P];
        Ps[P].Rng = SplitMix64(Seeder.next());
      }
      Probe Pr{&Vm, nullptr, nullptr, nullptr, {Ts}};
      measurePhases(O, R, Pr, Pairs, Spans,
                    [&](int L, std::uint64_t, std::uint64_t Stop,
                        LaneLog &Log) {
                      while (nowNanos() < Stop)
                        playRound(*Ts, Ps[L], Log);
                    });
    }

    // Stop pings; a ponger still running after its budget missed its
    // wakeup and gets another.
    for (int P = 0; P != Pairs; ++P)
      Ts->put(makeTuple(Keys[P], "ping", -1, 0, 0, stampNow()));
    for (int P = 0; P != Pairs; ++P)
      while (!ThreadController::threadWaitFor(*Pongers[P],
                                              Deadline::in(TakeBudgetNanos))) {
        ++Unstopped;
        Ts->put(makeTuple(Keys[P], "ping", -1, 0, 0, stampNow()));
      }
    for (int P = 0; P != Pairs; ++P)
      while (Ts->tryTake(makeTuple(Keys[P], "ping", -1, 0, 0, formal(0))))
        ;
    if (Measured && WarmOk) {
      long long WantSum = 0, GotSum = 0;
      std::uint64_t Mismatches = 0, Late = 0;
      for (const Pinger &P : Ps) {
        WantSum += P.WantSum;
        GotSum += P.GotSum;
        Mismatches += P.Mismatches;
        Late += P.Timeouts;
      }
      R.gate("every pong carries its ping's value + 1", Mismatches == 0);
      R.gate("sum of pongs equals sum of pings + rounds", WantSum == GotSum);
      R.gate("no pong take waited past its budget", Late == 0);
      R.gate("the space drains to size() == 0", Ts->size() == 0);
      if (O.Trace)
        writeTraces(O, Spans, Vm);
    }
  });
  R.gate("every ponger stopped on its stop ping", Unstopped == 0);
  R.gate("no wait missed its wakeup", MissedWakeups == 0);
  return R;
}

} // namespace perfbench
