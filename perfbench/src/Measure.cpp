//===- perfbench/src/Measure.cpp - Logs, rigs, counters, reports ---------===//

#include "Bench.h"

#include "gc/GlobalHeap.h"
#include "sync/ParkList.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

namespace perfbench {

const char *opName(OpKind K) {
  switch (K) {
  case OpPut:
    return "put";
  case OpTake:
    return "take";
  case OpRead:
    return "read";
  case OpWildTake:
    return "wildcard_take";
  case OpJob:
    return "job";
  case NumOpKinds:
    break;
  }
  return "?";
}

std::atomic<std::uint64_t> StalledTouches{0};
std::atomic<std::uint64_t> MissedWakeups{0};

// --- Phase logs ------------------------------------------------------------

void PhaseLog::merge(const LaneLog &L) {
  for (int K = 0; K != NumOpKinds; ++K) {
    LatUs[K].append(L.LatUs[K]);
    Attempted[K] += L.Attempted[K];
    Failed[K] += L.Failed[K];
  }
  LateUs.append(L.LateUs);
}

std::uint64_t PhaseLog::attemptedOps() const {
  std::uint64_t N = 0;
  for (int K = 0; K != OpJob; ++K)
    N += Attempted[K];
  return N;
}

std::uint64_t PhaseLog::failedOps() const {
  std::uint64_t N = 0;
  for (int K = 0; K != OpJob; ++K)
    N += Failed[K];
  return N;
}

double PhaseLog::meanOpUs() const {
  double Sum = 0.0;
  std::uint64_t N = 0;
  for (int K = 0; K != OpJob; ++K) {
    Sum += LatUs[K].mean() * static_cast<double>(LatUs[K].count());
    N += LatUs[K].count();
  }
  return ratio(Sum, static_cast<double>(N));
}

// --- Result ----------------------------------------------------------------

void Result::metric(const std::string &Name, double Value, const char *Unit,
                    std::uint64_t N) {
  if (!std::isfinite(Value))
    Value = 0.0;
  Metrics.push_back({Name, Value, Unit, N});
}

void Result::gate(const std::string &What, bool Ok) {
  Gates.push_back({What, Ok});
  if (!Ok)
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 What.c_str());
}

bool Result::correct() const {
  if (Gates.empty())
    return false;
  for (const Gate &G : Gates)
    if (!G.Ok)
      return false;
  return true;
}

void Result::print(std::FILE *Out, const Options &O) const {
  std::fprintf(Out,
               "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
               "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
               "\"metrics\":{",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               O.Trace ? 1 : 0, correct() ? "true" : "false",
               static_cast<unsigned long long>(Attempted),
               static_cast<unsigned long long>(Failed));
  for (std::size_t I = 0; I != Metrics.size(); ++I)
    std::fprintf(Out, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"n\":%llu}",
                 I ? "," : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                 Metrics[I].Unit, static_cast<unsigned long long>(Metrics[I].N));
  std::fprintf(Out, "},\"setup_s_samples\":[");
  for (std::size_t I = 0; I != SetupSecs.size(); ++I)
    std::fprintf(Out, "%s%.17g", I ? "," : "", SetupSecs[I]);
  std::fprintf(Out, "],\"gates\":[");
  for (std::size_t I = 0; I != Gates.size(); ++I)
    std::fprintf(Out, "%s{\"what\":\"%s\",\"ok\":%s}", I ? "," : "",
                 Gates[I].What.c_str(), Gates[I].Ok ? "true" : "false");
  std::fprintf(Out, "]}\n");
  std::fflush(Out);
}

// --- Traced requests ---------------------------------------------------------

Request::Request(LaneLog &Log, const char *Name, std::uint64_t StartNs)
    : Log(Log), Name(Name), StartNs(StartNs) {
  if (!Log.Spans)
    return;
  Flow = obs::newFlowId();
  Id = Log.Spans->newId();
  Scope.emplace(Flow);
}

Request::~Request() {
  if (Log.Spans)
    Log.Spans->add({Name, StartNs, nowNanos(), Id, 0, Flow, Log.Tid});
}

void Request::child(const char *ChildName, std::uint64_t Start,
                    std::uint64_t End) {
  if (Log.Spans)
    Log.Spans->add(
        {ChildName, Start, End, Log.Spans->newId(), Id, Flow, Log.Tid});
}

// --- Shard ring --------------------------------------------------------------

bool ShardRing::build(VirtualMachine &Vm, IoService &Io, std::size_t N,
                      std::size_t Factor) {
  dist::RouterConfig RC;
  std::vector<net::ClientConfig> Ring;
  for (std::size_t S = 0; S != N; ++S) {
    Spaces.push_back(TupleSpace::create());
    dist::ShardConfig SC;
    if (Factor >= 2) {
      Reps.push_back(std::make_shared<dist::Replica>(Vm, Io, Spaces[S], S));
      SC.Rep = Reps[S];
    }
    Servers.push_back(
        net::Server::start(Vm, Io, dist::shardHandler(Spaces[S], SC)));
    if (!Servers.back())
      return false;
    net::ClientConfig CC;
    CC.Port = Servers[S]->port();
    Ring.push_back(CC);
    RC.Shards.push_back(CC);
  }
  for (auto &R : Reps)
    R->bind(Ring);
  RC.ReplicationFactor = Factor;
  Router = std::make_unique<dist::SpaceRouter>(Vm, Io, std::move(RC));
  return true;
}

void ShardRing::teardown() {
  if (Router)
    Router->shutdown();
  for (auto &S : Servers)
    if (S)
      S->shutdown();
  for (auto &R : Reps)
    R->shutdown();
}

std::size_t ShardRing::residentTuples() const {
  std::size_t N = 0;
  for (const TupleSpaceRef &S : Spaces)
    N += S->size();
  return N;
}

bool ShardRing::settle() const {
  Deadline D = Deadline::in(5'000'000'000);
  while (Router->pendingLegs() != 0 && !D.expired())
    sleepUntil(nowNanos() + 1'000'000);
  return Router->pendingLegs() == 0;
}

VmConfig machineConfig(const Options &O) {
  VmConfig Config;
  Config.NumVps = 4;
  Config.NumPps = 2;
  Config.EnablePreemption = true;
  Config.EnableTracing = O.Trace;
  return Config;
}

void sleepUntil(std::uint64_t DueNs) {
  static ParkList NeverSignaled;
  (void)NeverSignaled.awaitUntil([] { return false; }, &NeverSignaled,
                                 Deadline::at(DueNs));
}

std::uint64_t warmupNanos(const Options &O) {
  return static_cast<std::uint64_t>(
      std::min(1.0, O.Seconds / 10.0) * 1e9);
}

// --- Counters ----------------------------------------------------------------

std::uint64_t cpuMicros() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Us = [](const timeval &T) {
    return static_cast<std::uint64_t>(T.tv_sec) * 1'000'000 +
           static_cast<std::uint64_t>(T.tv_usec);
  };
  return Us(U.ru_utime) + Us(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

CounterSnap CounterSnap::take(const Probe &P) {
  CounterSnap S;
  S.Nanos = nowNanos();
  S.CpuUs = cpuMicros();
  S.Sched = P.Vm->aggregateStats();
  S.PendingTimers = P.Vm->clock().pendingTimers();
  if (P.Router)
    S.Router = P.Router->statsSnapshot();
  if (P.Reps)
    for (const dist::ReplicaRef &R : *P.Reps) {
      dist::ReplicaStatsSnapshot One = R->statsSnapshot();
      S.Repl.Forwards += One.Forwards;
      S.Repl.ForwardFailures += One.ForwardFailures;
      S.Repl.StaleRejections += One.StaleRejections;
    }
  if (P.Io) {
    S.IoWaits = P.Io->stats().Waits.load(std::memory_order_relaxed);
    S.IoWakeups = P.Io->stats().Wakeups.load(std::memory_order_relaxed);
  }
  gc::GlobalHeapStats H = P.Vm->globalHeap().stats();
  S.GcBytes = H.BytesAllocated;
  S.GcFull = H.FullCollections;
  for (const TupleSpaceRef &Sp : P.Spaces)
    S.SpacePuts += Sp->stats().Puts.load(std::memory_order_relaxed);
  return S;
}

// --- Reports -----------------------------------------------------------------

/// Median of \p V (0 when empty).
static double median(const std::vector<double> &V) {
  Samples S;
  for (double X : V)
    S.add(X);
  return S.percentile(50);
}

void reportEndToEnd(Result &R) {
  R.metric("setup_s", median(R.SetupSecs), "s", R.SetupSecs.size());
  PhaseLog &M = R.Measured;
  R.metric("capacity_ops_s",
           ratio(static_cast<double>(M.completedOps()), M.seconds()), "ops/s",
           M.completedOps());
  R.metric("cpu_us_per_op",
           ratio(static_cast<double>(R.MeasuredCpuUs),
                 static_cast<double>(M.completedOps())),
           "us/op", M.completedOps());
  for (int K = 0; K != NumOpKinds; ++K) {
    Samples &S = M.LatUs[K];
    if (S.empty())
      continue;
    const std::string Op = opName(static_cast<OpKind>(K));
    R.metric(Op + "_p50_us", S.percentile(50), "us", S.count());
    R.metric(Op + "_p90_us", S.percentile(90), "us", S.count());
  }
  const std::uint64_t Attempted = M.attemptedOps(), Failed = M.failedOps();
  R.metric("fail_ratio",
           ratio(static_cast<double>(Failed), static_cast<double>(Attempted)),
           "ratio", Attempted);
  R.metric("peak_rss_mb", R.PeakRssMb, "MiB", 1);
  R.metric("sync.stalled_touches", static_cast<double>(StalledTouches.load()),
           "count", 1);
  R.Attempted += Attempted;
  R.Failed += Failed;
}

void reportPerLayer(Result &R, PhaseLog &Untraced, PhaseLog &Traced,
                    const CounterSnap &B, const CounterSnap &A,
                    const SpanLog &Spans) {
  const std::uint64_t Ops = Traced.completedOps();
  const double N = static_cast<double>(Ops);
  const double Secs = static_cast<double>(delta(A.Nanos, B.Nanos)) / 1e9;
  const double Wild = static_cast<double>(Traced.Attempted[OpWildTake]);
  const double Takes =
      static_cast<double>(Traced.Attempted[OpTake]) + Wild;
  auto perOp = [&](const char *Name, std::uint64_t After,
                   std::uint64_t Before) {
    R.metric(Name, ratio(static_cast<double>(delta(After, Before)), N),
             "count/op", Ops);
  };
  auto count = [&](const char *Name, std::uint64_t After,
                   std::uint64_t Before) {
    R.metric(Name, static_cast<double>(delta(After, Before)), "count", Ops);
  };
  const obs::SchedStatsSnapshot &SA = A.Sched, &SB = B.Sched;

  // dist: the router's own tallies.
  perOp("dist.routes_per_op", A.Router.Routes, B.Router.Routes);
  R.metric("dist.legs_per_wildcard_take",
           ratio(static_cast<double>(delta(A.Router.Fanouts, B.Router.Fanouts)),
                 Wild),
           "count/op", static_cast<std::uint64_t>(Wild));
  R.metric(
      "dist.retracts_per_wildcard_take",
      ratio(static_cast<double>(delta(A.Router.Retracts, B.Router.Retracts)),
            Wild),
      "count/op", static_cast<std::uint64_t>(Wild));
  R.metric("dist.redeposits_per_take",
           ratio(static_cast<double>(
                     delta(A.Router.Redeposits, B.Router.Redeposits)),
                 Takes),
           "count/op", static_cast<std::uint64_t>(Takes));
  count("dist.orphans", A.Router.Orphans, B.Router.Orphans);

  // repl: summed over every shard's Replica.
  perOp("repl.forwards_per_op", A.Repl.Forwards, B.Repl.Forwards);
  count("repl.forward_failures", A.Repl.ForwardFailures,
        B.Repl.ForwardFailures);
  count("repl.stale_rejections", A.Repl.StaleRejections,
        B.Repl.StaleRejections);

  // net: per-VP counters summed by the machine.
  perOp("net.reads_per_op", SA.NetReads, SB.NetReads);
  perOp("net.writes_per_op", SA.NetWrites, SB.NetWrites);
  perOp("net.pool_checkout_waits_per_op", SA.PoolCheckoutWaits,
        SB.PoolCheckoutWaits);
  count("net.retries", SA.NetRetries, SB.NetRetries);
  count("net.breaker_opens", SA.NetBreakerOpens, SB.NetBreakerOpens);
  count("net.shed", SA.NetShedded, SB.NetShedded);

  // io: the poller.
  perOp("io.waits_per_op", A.IoWaits, B.IoWaits);
  perOp("io.wakeups_per_op", A.IoWakeups, B.IoWakeups);

  // core: scheduler.
  perOp("core.dispatches_per_op", SA.Dispatches, SB.Dispatches);
  perOp("core.threads_created_per_op", SA.ThreadsCreated, SB.ThreadsCreated);
  R.metric("core.steals_per_op",
           ratio(static_cast<double>(
                     delta(SA.StealsSucceeded, SB.StealsSucceeded) +
                     delta(SA.DequeSteals, SB.DequeSteals)),
                 N),
           "count/op", Ops);
  R.metric("core.preempts_per_s",
           ratio(static_cast<double>(
                     delta(SA.PreemptsDelivered, SB.PreemptsDelivered)),
                 Secs),
           "1/s", Ops);
  perOp("core.vp_parks_per_op", SA.VpParks, SB.VpParks);
  // Timers still queued as the traced phase ends: a satisfied timed wait
  // keeps its timer until the deadline, so this counts the last slice's
  // waits (WaitSliceNanos) until the library drops timers on wake-up.
  R.metric("core.pending_timers", static_cast<double>(A.PendingTimers),
           "count", Ops);

  // tuple: per deposit into the spaces the workload uses.
  const std::uint64_t Puts = delta(A.SpacePuts, B.SpacePuts);
  R.metric("tuple.handoffs_per_put",
           ratio(static_cast<double>(delta(SA.TupleHandoffs, SB.TupleHandoffs)),
                 static_cast<double>(Puts)),
           "count/op", Puts);
  R.metric("tuple.wakeups_per_put",
           ratio(static_cast<double>(delta(SA.TupleWakeups, SB.TupleWakeups)),
                 static_cast<double>(Puts)),
           "count/op", Puts);

  R.metric("sync.stalled_touches", static_cast<double>(StalledTouches.load()),
           "count", 1);

  // gc: the machine's shared old generation.
  R.metric("gc.bytes_allocated_per_op",
           ratio(static_cast<double>(delta(A.GcBytes, B.GcBytes)), N),
           "B/op", Ops);
  count("gc.full_collections", A.GcFull, B.GcFull);

  // proc: the whole process, load generator included.
  R.metric("proc.cpu_us_per_op",
           ratio(static_cast<double>(delta(A.CpuUs, B.CpuUs)), N), "us/op",
           Ops);

  // Tails and generator lateness from the untraced half.
  for (int K = 0; K != NumOpKinds; ++K) {
    Samples &S = Untraced.LatUs[K];
    const std::string Op = opName(static_cast<OpKind>(K));
    R.metric("tail." + Op + "_p99_us", S.percentile(99), "us", S.count());
    R.metric("tail." + Op + "_p999_us", S.percentile(99.9), "us", S.count());
  }
  R.metric("loadgen.late_p50_us", Untraced.LateUs.percentile(50), "us",
           Untraced.LateUs.count());
  R.metric("loadgen.late_p99_us", Untraced.LateUs.percentile(99), "us",
           Untraced.LateUs.count());

  R.metric("trace.overhead_pct",
           (ratio(Traced.meanOpUs(), Untraced.meanOpUs()) - 1.0) * 100.0, "%",
           Ops);
  R.metric("trace.spans", static_cast<double>(Spans.size()), "count",
           Spans.size());
  R.metric("trace.spans_dropped", static_cast<double>(Spans.dropped()),
           "count", Spans.dropped());

  R.Attempted += Untraced.attemptedOps() + Traced.attemptedOps();
  R.Failed += Untraced.failedOps() + Traced.failedOps();
}

void writeTraces(const Options &O, const SpanLog &Spans,
                 const VirtualMachine &Vm) {
  std::error_code Ec;
  std::filesystem::create_directories(O.OutDir, Ec);
  const std::string Base = O.OutDir + "/trace-" + O.Workload;
  if (!Spans.writeChrome(Base + ".json"))
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", Base.c_str());
#ifdef STING_TRACE
  // The library's own events (router_route, repl_forward, tuple_handoff,
  // ...) carry the same flow ids as stingbench's spans.
  obs::TraceExporter E;
  E.addProcess(O.Workload, Vm.snapshotTrace());
  if (!E.writeFile(Base + "-library.json"))
    std::fprintf(stderr, "perfbench: cannot write %s-library.json\n",
                 Base.c_str());
#else
  (void)Vm;
#endif
}

} // namespace perfbench
