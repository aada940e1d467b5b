//===- perfbench/src/SubstrateFarm.cpp - substrate_farm workload ---------===//
//
// In-process, no sockets, closed loop. 4 feeders each keep a fixed window
// of jobs outstanding. A job is a task tuple put into one TupleSpace; one
// of many worker sting threads takes it, forks a small binary tree of
// futures, and puts the result; the feeder takes any of its results with
// a wildcard on the job id. core, tuple, sync and gc do all the work.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <unordered_map>

namespace perfbench {
namespace {

constexpr int Feeders = 4;
constexpr int Window = 1;
constexpr int Workers = 16;
/// Future tree depth: 2^Depth - 1 futures forked per job.
constexpr int Depth = 3;
constexpr int LeafRounds = 64;
/// A feeder's wait for a result past this counts as a failed take.
constexpr std::uint64_t TakeBudgetNanos = 2'000'000'000;
constexpr std::uint64_t TouchBudgetNanos = 1'000'000'000;

std::int64_t leaf(std::int64_t X) {
  std::uint64_t H = static_cast<std::uint64_t>(X) | 1;
  for (int I = 0; I != LeafRounds; ++I) {
    H ^= H << 13;
    H ^= H >> 7;
    H ^= H << 17;
  }
  return static_cast<std::int64_t>(H >> 40);
}

/// The same function computed sequentially: the feeder's expectation.
std::int64_t expected(std::int64_t X, int D) {
  return D == 0 ? leaf(X) : expected(2 * X + 1, D - 1) + expected(2 * X + 2, D - 1);
}

/// The job's work, forked as a tree of futures. A touch that misses its
/// wakeup or waits past its budget is a substrate stall: it is counted,
/// which fails the run, and a subtree past the budget is computed inline
/// so the run still finishes and its other gates still check the results.
std::int64_t tree(std::int64_t X, int D) {
  if (D == 0)
    return leaf(X);
  auto Left = future([X, D] {
    const std::int64_t V = tree(2 * X + 1, D - 1);
    return Stamped{V, nowNanos()};
  });
  const std::int64_t Right = tree(2 * X + 2, D - 1);
  if (const Stamped *V = touchWithin(Left, TouchBudgetNanos))
    return V->Value + Right;
  StalledTouches.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "perfbench: a future touch waited %.1f s\n",
               TouchBudgetNanos / 1e9);
  return expected(2 * X + 1, D - 1) + Right;
}

struct Outstanding {
  std::uint64_t SubmitNs;
  std::int64_t Want;
};

struct Feeder {
  SplitMix64 Rng{0};
  std::int64_t NextId = 0;
  std::unordered_map<std::int64_t, Outstanding> Open;
  long long WantSum = 0, GotSum = 0;
  std::uint64_t Mismatches = 0;
  std::uint64_t Timeouts = 0; ///< result takes that waited past their budget
};

/// Worker loop: take a task, compute it, put the result. A negative id
/// is the stop pill. Task fields: id, x, feeder, flow, parent span, put
/// time; result fields: feeder, id, value, put time.
void work(TupleSpace &Ts, SpanLog &Spans, std::uint32_t Tid) {
  for (;;) {
    // One slice at a time, re-armed: a wakeup the space misses is
    // counted and costs this worker one slice, not the farm for good.
    std::optional<Match> M;
    while (!(M = takeWithin(Ts, [] {
               return makeTuple("task", formal(0), formal(1), formal(2),
                                formal(3), formal(4), formal(5));
             }, 5, WaitSliceNanos)))
      ;
    const std::int64_t Id = M->binding(0).asFixnum();
    if (Id < 0)
      return;
    const std::int64_t X = M->binding(1).asFixnum();
    const std::int64_t Feeder = M->binding(2).asFixnum();
    const auto Flow = static_cast<std::uint64_t>(M->binding(3).asFixnum());
    const auto Parent = static_cast<std::uint64_t>(M->binding(4).asFixnum());
    std::optional<obs::FlowScope> Scope;
    if (Flow)
      Scope.emplace(Flow);
    const std::uint64_t T0 = nowNanos();
    const std::int64_t V = tree(X, Depth);
    const std::uint64_t T1 = nowNanos();
    Ts.put(makeTuple("res", Feeder, Id, V, stampNow()));
    if (Flow) {
      const std::uint64_t T2 = nowNanos();
      Spans.add({"sync.future_tree", T0, T1, Spans.newId(), Parent, Flow, Tid});
      Spans.add({"tuple.TupleSpace.put(result)", T1, T2, Spans.newId(), Parent,
                 Flow, Tid});
    }
  }
}

} // namespace

Result runSubstrateFarm(const Options &O) {
  Result R;
  SplitMix64 Seeder(O.Seed);
  std::uint64_t PillResends = 0;
  forEachVm(O, [&](VirtualMachine &Vm, bool Measured, std::uint64_t T0) {
    TupleSpaceRef Ts = TupleSpace::create();
    SpanLog Spans(100'000);
    std::vector<ThreadRef> Pool;
    for (int W = 0; W != Workers; ++W)
      Pool.push_back(ThreadController::forkThread(
          [&, W]() -> AnyValue {
            work(*Ts, Spans, static_cast<std::uint32_t>(100 + W));
            return AnyValue(true);
          },
          LaneSpawn));
    // Set-up ends here, before the first job. One untimed job then
    // checks the farm end to end.
    R.SetupSecs.push_back(secondsSince(T0));
    Ts->put(makeTuple("task", 0, 1, -1, 0, 0, stampNow()));
    const std::optional<Match> Warm = takeWithin(
        *Ts,
        [] { return makeTuple("res", -1, formal(0), formal(1), formal(2)); },
        2, TakeBudgetNanos);
    const bool WarmOk =
        Warm && Warm->binding(1).asFixnum() == expected(1, Depth);
    if (!WarmOk)
      R.gate("warm-up job", false);

    std::vector<Feeder> Fs(Feeders);
    if (Measured && WarmOk) {
      for (Feeder &F : Fs)
        F.Rng = SplitMix64(Seeder.next());
      Probe P{&Vm, nullptr, nullptr, nullptr, {Ts}};
      measurePhases(O, R, P, Feeders, Spans,
                    [&](int L, std::uint64_t, std::uint64_t Stop,
                        LaneLog &Log) {
        Feeder &F = Fs[L];
        for (;;) {
          const bool Open = nowNanos() < Stop;
          if (!Open && F.Open.empty())
            return;
          while (Open && F.Open.size() != static_cast<std::size_t>(Window)) {
            const std::int64_t Id = F.NextId++;
            const std::int64_t X = F.Rng.value();
            const std::uint64_t Begin = nowNanos();
            Request Req(Log, "job_submit", Begin);
            Ts->put(makeTuple("task", Id, X, L,
                              static_cast<std::int64_t>(Req.flow()),
                              static_cast<std::int64_t>(Req.spanId()),
                              stampNow()));
            const std::uint64_t End = nowNanos();
            Log.op(OpPut, Begin, End, true);
            Req.child("tuple.TupleSpace.put(task)", Begin, End);
            const std::int64_t Want = expected(X, Depth);
            F.Open.emplace(Id, Outstanding{Begin, Want});
            F.WantSum += Want;
          }
          const std::uint64_t Begin = nowNanos();
          Request Req(Log, "job_collect", Begin);
          std::optional<Match> M = takeWithin(
              *Ts,
              [L] {
                return makeTuple("res", L, formal(0), formal(1), formal(2));
              },
              2, TakeBudgetNanos);
          const std::uint64_t End = nowNanos();
          Log.op(OpTake, Begin, End, M.has_value());
          Req.child("tuple.TupleSpace.takeUntil(result)", Begin, End);
          if (!M) {
            // Every job is still owed a result; a wait this long is a
            // missed wakeup. It fails the run; the feeder waits on so
            // the run still drains.
            ++F.Timeouts;
            std::fprintf(stderr,
                         "perfbench: feeder %d waited %.1f s for a result "
                         "(%zu open, %zu tuples in the space)\n",
                         L, TakeBudgetNanos / 1e9, F.Open.size(),
                         Ts->size());
            continue;
          }
          const std::int64_t Id = M->binding(0).asFixnum();
          const std::int64_t Got = M->binding(1).asFixnum();
          auto It = F.Open.find(Id);
          if (It == F.Open.end()) {
            ++F.Mismatches;
            continue;
          }
          if (Got != It->second.Want)
            ++F.Mismatches;
          F.GotSum += Got;
          Log.op(OpJob, It->second.SubmitNs, End, true);
          F.Open.erase(It);
        }
      });
    }

    // Stop pills. A worker still running after its wait budget missed
    // its pill's wakeup: that fails the run, and it gets another pill so
    // the run cannot hang. Spare pills are taken back before the drain
    // gate.
    for (int W = 0; W != Workers; ++W)
      Ts->put(makeTuple("task", -1, 0, 0, 0, 0, stampNow()));
    for (ThreadRef &T : Pool)
      while (!ThreadController::threadWaitFor(*T,
                                              Deadline::in(TakeBudgetNanos))) {
        ++PillResends;
        Ts->put(makeTuple("task", -1, 0, 0, 0, 0, stampNow()));
      }
    while (Ts->tryTake(makeTuple("task", -1, 0, 0, 0, 0, formal(0))))
      ;
    if (Measured && WarmOk) {
      long long WantSum = 0, GotSum = 0;
      std::uint64_t Mismatches = 0, Timeouts = 0;
      for (const Feeder &F : Fs) {
        WantSum += F.WantSum;
        GotSum += F.GotSum;
        Mismatches += F.Mismatches;
        Timeouts += F.Timeouts;
      }
      R.gate("every job's result matches its task", Mismatches == 0);
      R.gate("no result take waited past its budget", Timeouts == 0);
      R.gate("sum of results equals sum of expected results",
             WantSum == GotSum);
      R.gate("the space drains to size() == 0", Ts->size() == 0);
      if (O.Trace)
        writeTraces(O, Spans, Vm);
    }
  });
  R.gate("no future touch waited past its budget", StalledTouches == 0);
  R.gate("no wait missed its wakeup", MissedWakeups == 0);
  R.gate("every worker stopped on its first stop pill", PillResends == 0);
  return R;
}

} // namespace perfbench
