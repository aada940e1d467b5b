//===- perfbench/src/Bench.h - Shared benchmark machinery --------*- C++ -*-===//
//
// Declarations shared by the workloads: run options, per-lane op logs,
// the result/metric sink, the traced-request helper, the shard ring the
// router workloads stand up, and counter snapshots taken from outside
// the library through its public stats surfaces.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Spans.h"
#include "Stats.h"

#include "dist/Replica.h"
#include "dist/Shard.h"
#include "dist/SpaceRouter.h"
#include "sting/Sting.h"
#include "support/Clock.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using namespace sting;

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where the traced run writes its Chrome trace.
  std::string OutDir = ".";
};

/// Deterministic generator for everything a workload derives from --seed.
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  std::uint64_t below(std::uint64_t N) { return next() % N; }
  /// A positive value small enough that sums of millions never overflow.
  std::int64_t value() { return static_cast<std::int64_t>(next() >> 24); }

private:
  std::uint64_t State;
};

/// The caller-visible operations a workload times.
enum OpKind { OpPut, OpTake, OpRead, OpWildTake, OpJob, NumOpKinds };
const char *opName(OpKind K);

/// One measured phase of one lane (a caller, sender or feeder thread).
/// Owned by a single sting thread, so it takes no locks.
struct LaneLog {
  /// Samples kept per op kind before thinning starts (see Samples): the
  /// benchmark's own memory stays flat, so peak_rss_mb measures the library.
  static constexpr std::size_t SampleCap = 4096;

  LaneLog() {
    for (Samples &S : LatUs)
      S = Samples(SampleCap);
    LateUs = Samples(SampleCap);
  }

  Samples LatUs[NumOpKinds];
  std::uint64_t Attempted[NumOpKinds] = {};
  std::uint64_t Failed[NumOpKinds] = {};
  Samples LateUs; ///< open loop: issue time minus due time
  SpanLog *Spans = nullptr; ///< non-null in the traced phase
  std::uint32_t Tid = 0;

  /// Records one op that ran from \p StartNs (its due time, open loop) to
  /// \p EndNs. Failed ops count against the attempts and add no latency.
  void op(OpKind K, std::uint64_t StartNs, std::uint64_t EndNs, bool Ok) {
    ++Attempted[K];
    if (!Ok) {
      ++Failed[K];
      return;
    }
    LatUs[K].add(static_cast<double>(EndNs - StartNs) / 1e3);
  }
};

/// Every lane's log of one phase, merged, with the phase's wall window.
struct PhaseLog {
  Samples LatUs[NumOpKinds];
  std::uint64_t Attempted[NumOpKinds] = {};
  std::uint64_t Failed[NumOpKinds] = {};
  Samples LateUs;
  std::uint64_t Nanos = 0; ///< wall time the phase's lanes ran

  void merge(const LaneLog &L);
  double seconds() const { return static_cast<double>(Nanos) / 1e9; }
  /// Caller tuple operations (jobs are not ops: a job is a put plus a take).
  std::uint64_t attemptedOps() const;
  std::uint64_t failedOps() const;
  std::uint64_t completedOps() const { return attemptedOps() - failedOps(); }
  /// Mean latency over every completed op, the tracing-overhead base.
  double meanOpUs() const;
};

/// Named metrics, correctness gates, and the JSON line stingbench prints.
class Result {
public:
  void metric(const std::string &Name, double Value, const char *Unit,
              std::uint64_t N);
  /// Records a correctness gate; any false gate fails the run.
  void gate(const std::string &What, bool Ok);
  bool correct() const;
  void print(std::FILE *Out, const Options &O) const;

  std::uint64_t Attempted = 0, Failed = 0;
  /// Each build's set-up time, in build order.
  std::vector<double> SetupSecs;
  /// Untraced runs: the measured machine's phase (reportEndToEnd).
  PhaseLog Measured;
  /// Process peak RSS once the measured machine has run.
  double PeakRssMb = 0;
  /// Process CPU time (every thread, user + system) over the measured
  /// phase, in µs.
  std::uint64_t MeasuredCpuUs = 0;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
    std::uint64_t N;
  };
  struct Gate {
    std::string What;
    bool Ok;
  };
  std::vector<Metric> Metrics;
  std::vector<Gate> Gates;
};

/// One traced request: in the traced phase it allocates a fresh flow id,
/// installs it (obs::FlowScope) so the library's own trace events join
/// the request, and records a root span plus one child span per public
/// call. In untraced phases every member is a no-op.
class Request {
public:
  Request(LaneLog &Log, const char *Name, std::uint64_t StartNs);
  ~Request();
  Request(const Request &) = delete;
  Request &operator=(const Request &) = delete;

  void child(const char *Name, std::uint64_t StartNs, std::uint64_t EndNs);
  std::uint64_t flow() const { return Flow; }
  std::uint64_t spanId() const { return Id; }

private:
  LaneLog &Log;
  const char *Name;
  std::uint64_t StartNs, Flow = 0, Id = 0;
  std::optional<obs::FlowScope> Scope;
};

/// Three (or N) in-process shard servers and a router over them, the way
/// a deployment wires dist: shards first, replicas bound once every
/// port is known, then the router. Lives inside Vm.run.
struct ShardRing {
  std::vector<TupleSpaceRef> Spaces;
  std::vector<dist::ReplicaRef> Reps;
  std::vector<std::unique_ptr<net::Server>> Servers;
  std::unique_ptr<dist::SpaceRouter> Router;

  /// \returns false when a shard server could not bind.
  bool build(VirtualMachine &Vm, IoService &Io, std::size_t N,
             std::size_t Factor);
  void teardown();
  /// Sum of live tuples over every shard's serving space.
  std::size_t residentTuples() const;
  /// Waits (bounded) for every registration leg to resolve.
  bool settle() const;
};

/// VM shape shared by every workload: 4 VPs on 2 OS threads, preemption
/// on (the seed benchmarks' shape). Tracing rings only in the traced run.
VmConfig machineConfig(const Options &O);

/// Parks the calling sting thread until \p DueNs (a timed park on a
/// list nobody signals: the substrate's sleep).
void sleepUntil(std::uint64_t DueNs);

/// Timed waits re-arm in slices of this length. The library keeps a timed
/// park's timer queued in the machine's PreemptionClock until its deadline,
/// even when the wait ends early, so one long deadline per op would grow
/// that heap (and RSS, and the cost of every push) with throughput times
/// the deadline. Slicing bounds it by throughput times the slice.
constexpr std::uint64_t WaitSliceNanos = 50'000'000;

/// A slice that times out although what it waited for was ready this long
/// before the slice's deadline missed a wakeup: a deposit or determination
/// that lands while the waiter is registered wins over its timeout.
constexpr std::uint64_t MissSlackNanos = 10'000'000;

/// Waits whose slice timed out although what they waited for had been
/// ready since MissSlackNanos before its deadline. Any fails the run.
extern std::atomic<std::uint64_t> MissedWakeups;

/// Counts a missed wakeup when \p ReadyNs is well before \p SliceEndNs.
inline void noteLateWake(std::uint64_t ReadyNs, std::uint64_t SliceEndNs) {
  if (ReadyNs + MissSlackNanos < SliceEndNs) {
    MissedWakeups.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "perfbench: a wait slept %.1f ms past a wakeup\n",
                 static_cast<double>(SliceEndNs - ReadyNs) / 1e6);
  }
}

/// nowNanos() as a tuple field: the put time takeWithin checks.
inline std::int64_t stampNow() { return static_cast<std::int64_t>(nowNanos()); }

/// TupleSpace::takeUntil of the template \p Make() builds, re-armed in
/// slices until \p BudgetNanos have passed; nullopt past the budget. The
/// tuples it takes carry their put's nowNanos() at binding \p StampAt,
/// so a slice that times out with its tuple long in the space counts as a
/// missed wakeup.
template <typename MakeTemplate>
std::optional<Match> takeWithin(TupleSpace &Ts, MakeTemplate Make,
                                std::size_t StampAt,
                                std::uint64_t BudgetNanos) {
  const std::uint64_t End = nowNanos() + BudgetNanos;
  do {
    const std::uint64_t SliceEnd = std::min(End, nowNanos() + WaitSliceNanos);
    if (std::optional<Match> M = Ts.takeUntil(Make(), Deadline::at(SliceEnd)))
      return M;
    if (std::optional<Match> M = Ts.tryTake(Make())) {
      noteLateWake(
          static_cast<std::uint64_t>(M->binding(StampAt).asFixnum()),
          SliceEnd);
      return M;
    }
  } while (nowNanos() < End);
  return std::nullopt;
}

/// A future's value with the nowNanos() at which it was determined.
struct Stamped {
  std::int64_t Value;
  std::uint64_t DoneNs;
};

/// Future::touchUntil, re-armed in slices until \p BudgetNanos have
/// passed; null past the budget. A slice that times out on a future
/// determined long before its deadline counts as a missed wakeup.
inline const Stamped *touchWithin(const Future<Stamped> &F,
                                  std::uint64_t BudgetNanos) {
  const std::uint64_t End = nowNanos() + BudgetNanos;
  do {
    const std::uint64_t SliceEnd = std::min(End, nowNanos() + WaitSliceNanos);
    if (const Stamped *V = F.touchUntil(Deadline::at(SliceEnd)))
      return V;
    if (const Stamped *V = F.touchUntil(Deadline::at(0))) {
      noteLateWake(V->DoneNs, SliceEnd);
      return V;
    }
  } while (nowNanos() < End);
  return nullptr;
}

/// Future touches that waited past their budget (substrate_farm), which
/// both reports print as sync.stalled_touches.
extern std::atomic<std::uint64_t> StalledTouches;

/// The process's peak RSS so far, in MiB.
double peakRssMb();

/// The process's CPU time so far (every thread, user + system), in µs.
std::uint64_t cpuMicros();

/// What the traced run can see of a machine from outside.
struct Probe {
  VirtualMachine *Vm = nullptr;
  IoService *Io = nullptr;
  dist::SpaceRouter *Router = nullptr;
  const std::vector<dist::ReplicaRef> *Reps = nullptr;
  std::vector<TupleSpaceRef> Spaces;
};

/// Public counter readings at one instant.
struct CounterSnap {
  std::uint64_t Nanos = 0;
  std::uint64_t CpuUs = 0;
  obs::SchedStatsSnapshot Sched;
  dist::RouterStatsSnapshot Router;
  dist::ReplicaStatsSnapshot Repl; ///< summed over shards
  std::uint64_t IoWaits = 0, IoWakeups = 0;
  std::uint64_t GcBytes = 0, GcFull = 0;
  std::uint64_t SpacePuts = 0;
  std::size_t PendingTimers = 0; ///< queued in the machine's PreemptionClock

  static CounterSnap take(const Probe &P);
};

/// Runs \p Lanes lanes of \p Body(Lane, StartNs, StopNs, Log) on sting
/// threads for \p Nanos, joins them and merges their logs. With \p Spans
/// set, the lanes record spans (the traced phase).
/// Lanes and workers are long-lived threads, not futures: the joining
/// thread must wait for them, never evaluate one on its own stack.
inline const SpawnOptions LaneSpawn = [] {
  SpawnOptions S;
  S.Stealable = false;
  return S;
}();

template <typename Fn>
PhaseLog runLanes(int Lanes, std::uint64_t Nanos, SpanLog *Spans, Fn Body) {
  std::vector<LaneLog> Logs(static_cast<std::size_t>(Lanes));
  PhaseLog Phase;
  const std::uint64_t Start = nowNanos();
  const std::uint64_t Stop = Start + Nanos;
  std::vector<ThreadRef> Threads;
  for (int L = 0; L != Lanes; ++L) {
    Logs[L].Spans = Spans;
    Logs[L].Tid = static_cast<std::uint32_t>(L + 1);
    Threads.push_back(ThreadController::forkThread(
        [&, L]() -> AnyValue {
          Body(L, Start, Stop, Logs[L]);
          return AnyValue(true);
        },
        LaneSpawn));
  }
  for (ThreadRef &T : Threads)
    (void)ThreadController::threadValue(*T);
  Phase.Nanos = nowNanos() - Start;
  for (const LaneLog &L : Logs)
    Phase.merge(L);
  return Phase;
}

/// Discarded warm-up load before each machine's measured phase.
std::uint64_t warmupNanos(const Options &O);

// --- Reporting -----------------------------------------------------------

/// End-to-end metrics of an untraced run: setup_s, the median over its
/// builds; capacity; p50/p90 per op kind that ran; the fail ratio; and
/// peak RSS.
void reportEndToEnd(Result &R);

/// Per-layer metrics (traced run): counter deltas per op over the traced
/// phase, tails and loadgen lateness from the untraced half, and the
/// tracing overhead between the halves.
void reportPerLayer(Result &R, PhaseLog &Untraced, PhaseLog &Traced,
                    const CounterSnap &Before, const CounterSnap &After,
                    const SpanLog &Spans);

/// Drives \p Lanes lanes of \p Body through a run's phases on a built
/// machine: a discarded warm-up, then either --seconds of measured load
/// (kept for reportEndToEnd) or, in the traced run, an untraced half and a
/// traced half bracketed by counter snapshots (per-layer metrics).
template <typename Fn>
void measurePhases(const Options &O, Result &R, const Probe &P, int Lanes,
                   SpanLog &Spans, Fn Body) {
  (void)runLanes(Lanes, warmupNanos(O), nullptr, Body);
  const auto Nanos = static_cast<std::uint64_t>(O.Seconds * 1e9);
  if (!O.Trace) {
    const std::uint64_t Cpu0 = cpuMicros();
    R.Measured = runLanes(Lanes, Nanos, nullptr, Body);
    R.MeasuredCpuUs = delta(cpuMicros(), Cpu0);
    R.PeakRssMb = peakRssMb();
    return;
  }
  PhaseLog Untraced = runLanes(Lanes, Nanos / 2, nullptr, Body);
  const CounterSnap Before = CounterSnap::take(P);
  PhaseLog Traced = runLanes(Lanes, Nanos / 2, &Spans, Body);
  const CounterSnap After = CounterSnap::take(P);
  reportPerLayer(R, Untraced, Traced, Before, After, Spans);
}

/// Machines an untraced run builds; only the last is measured, and
/// setup_s is the median of all their set-up times. Each build counts
/// from the start of VM construction to just before the first op, the
/// first dispatch included. A traced run builds one.
constexpr int BuildsPerRun = 12;

inline int machinesPerRun(const Options &O) {
  return O.Trace ? 1 : BuildsPerRun;
}

/// Builds a fresh machine (and IoService) machinesPerRun(O) times and runs
/// \p Body(Vm, Io, Measured, T0) inside each, where secondsSince(T0) is
/// the time spent building so far. Body records its set-up time and, when
/// \p Measured (the last build), measures before tearing down.
template <typename Fn> void forEachMachine(const Options &O, Fn Body) {
  const int N = machinesPerRun(O);
  for (int I = 0; I != N; ++I) {
    const bool Measured = I + 1 == N;
    const std::uint64_t T0 = nowNanos();
    VirtualMachine Vm(machineConfig(O));
    IoService Io;
    Vm.run([&]() -> AnyValue {
      Body(Vm, Io, Measured, T0);
      return AnyValue(true);
    });
  }
}

/// The same for an in-process workload: no IoService, and \p Body(Vm,
/// Measured, T0).
template <typename Fn> void forEachVm(const Options &O, Fn Body) {
  const int N = machinesPerRun(O);
  for (int I = 0; I != N; ++I) {
    const bool Measured = I + 1 == N;
    const std::uint64_t T0 = nowNanos();
    VirtualMachine Vm(machineConfig(O));
    Vm.run([&]() -> AnyValue {
      Body(Vm, Measured, T0);
      return AnyValue(true);
    });
  }
}

/// Seconds since \p T0.
inline double secondsSince(std::uint64_t T0) {
  return static_cast<double>(nowNanos() - T0) / 1e9;
}

/// Writes \p Spans (and, on a STING_TRACE build, \p Vm's event rings) as
/// Chrome-trace JSON under O.OutDir.
void writeTraces(const Options &O, const SpanLog &Spans,
                 const VirtualMachine &Vm);

// --- Workloads -------------------------------------------------------------

Result runRouterKeyed(const Options &O);
Result runReplicatedMix(const Options &O);
Result runSubstrateFarm(const Options &O);
Result runShardDirect(const Options &O);
Result runTuplePingPong(const Options &O);

/// The per-layer ladder: the same tuple op timed at each layer boundary
/// through public calls, in a machine of its own, plus derived shares.
void runLadder(const Options &O, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
