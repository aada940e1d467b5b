//===- tests/obs/CountersTest.cpp - SchedStats consistency ------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// Checks the accounting invariants of the per-VP scheduler counters:
// every enqueue is matched by exactly one dequeue once the machine
// quiesces, creations match terminations, and the aggregate view is the
// sum of the per-VP views.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "obs/Exposition.h"
#include "obs/SchedStats.h"
#include "gtest/gtest.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

// Counters are charged by whichever OS thread performs the transition, so
// the last few dequeues of a workload can land just after run() returns to
// the external caller. Poll briefly for the balance to settle.
bool pollUntil(const VirtualMachine &Vm,
               bool (*Pred)(const obs::SchedStatsSnapshot &)) {
  for (int I = 0; I != 2000; ++I) {
    if (Pred(Vm.aggregateStats()))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(CountersTest, EnqueuesBalanceDequeuesAfterQuiesce) {
  VmConfig Config;
  Config.NumVps = 4;
  Config.NumPps = 2;
  VirtualMachine Vm(Config);

  Vm.run([]() -> AnyValue {
    std::vector<ThreadRef> Workers;
    SpawnOptions Opts;
    Opts.Stealable = false; // force every worker through the ready queues
    for (int I = 0; I != 64; ++I)
      Workers.push_back(TC::forkThread(
          [I]() -> AnyValue {
            for (int J = 0; J != I % 7; ++J)
              TC::yieldProcessor();
            return AnyValue(I);
          },
          Opts));
    for (ThreadRef &W : Workers)
      TC::threadWait(*W);
    return AnyValue();
  });

  ASSERT_TRUE(pollUntil(Vm, [](const obs::SchedStatsSnapshot &S) {
    return S.Enqueues == S.Dequeues;
  })) << Vm.statsReport();

  obs::SchedStatsSnapshot S = Vm.aggregateStats();
  // 64 workers plus the root thread all passed through a queue at least
  // once; yields re-enqueue, so the totals are well above the floor.
  EXPECT_GE(S.Enqueues, 65u);
  EXPECT_EQ(S.Enqueues, S.Dequeues);
  EXPECT_GE(S.Dispatches, S.FreshBinds);
  EXPECT_GE(S.ThreadsCreated, 65u);
}

TEST(CountersTest, CreationsMatchTerminations) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    std::vector<ThreadRef> Workers;
    for (int I = 0; I != 16; ++I)
      Workers.push_back(
          TC::forkThread([]() -> AnyValue { return AnyValue(1); }));
    for (ThreadRef &W : Workers)
      TC::threadWait(*W);
    return AnyValue();
  });

  // Workers (16) are determined; the root thread's own exit may land after
  // run() returns, hence >= 16 rather than an exact count.
  ASSERT_TRUE(pollUntil(Vm, [](const obs::SchedStatsSnapshot &S) {
    return S.ThreadsTerminated >= 16;
  })) << Vm.statsReport();
  obs::SchedStatsSnapshot S = Vm.aggregateStats();
  EXPECT_GE(S.ThreadsCreated, S.ThreadsTerminated);
}

TEST(CountersTest, AggregateIsSumOfPerVp) {
  VmConfig Config;
  Config.NumVps = 3;
  VirtualMachine Vm(Config);
  Vm.run([]() -> AnyValue {
    for (int I = 0; I != 8; ++I)
      TC::yieldProcessor();
    return AnyValue();
  });

  std::vector<obs::SchedStatsSnapshot> PerVp = Vm.perVpStats();
  ASSERT_EQ(PerVp.size(), 3u);
  obs::SchedStatsSnapshot Sum;
  for (const obs::SchedStatsSnapshot &V : PerVp)
    Sum += V;
  obs::SchedStatsSnapshot Total = Vm.aggregateStats();
  // Counters only grow, and the machine is idle between the two reads ...
  // mostly: a PP may still be draining, so compare with slack in one
  // direction only.
  EXPECT_LE(Sum.Dispatches, Total.Dispatches + PerVp.size());
  EXPECT_GE(Total.Yields, 8u);
}

TEST(CountersTest, StatsReportNamesEveryCounter) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TC::yieldProcessor();
    return AnyValue();
  });
  std::string Report = Vm.statsReport();
  for (const char *Name :
       {"enqueues", "dequeues", "dispatches", "yields", "parks",
        "steals attempted", "preempts delivered", "threads created",
        "run slices"})
    EXPECT_NE(Report.find(Name), std::string::npos)
        << "missing '" << Name << "' in:\n"
        << Report;
}

// The counter list is the only declaration of each counter: every entry
// must reach the snapshot, the aggregate, the report and the scrape under
// the label and metric name it has always had.
TEST(CountersTest, EveryListedCounterSurvivesEveryPath) {
  // Distinct values: entry I holds 1000 + I.
  obs::SchedStats Block;
  std::uint64_t Next = 1000;
#define COUNTER_SET(Field, Label, Metric) Block.Field.add(Next++);
  STING_SCHED_COUNTERS(COUNTER_SET)
#undef COUNTER_SET
  obs::SchedStatsSnapshot S = Block.snapshot();
  S.TraceEvents = Next++;
  S.TraceDrops = Next++;
  obs::SchedStatsSnapshot Sum;
  Sum += S;
  Sum += S;
  std::string Report = obs::formatStatsReport(Sum, {S});
  std::string Scrape = obs::formatPrometheus(Sum, {S});

  std::size_t NumRows = 0;
  const obs::CounterRow *Rows = obs::counterRows(NumRows);
  std::uint64_t Want = 1000;
  std::size_t Row = 0;
  auto Check = [&](std::uint64_t Got, std::uint64_t GotSum,
                   const char *Label, const char *Metric) {
    EXPECT_EQ(Got, Want) << Metric;
    EXPECT_EQ(GotSum, 2 * Want) << Metric;
    ASSERT_LT(Row, NumRows);
    EXPECT_STREQ(Rows[Row].Name, Label);
    EXPECT_STREQ(Rows[Row].MetricName, Metric);
    EXPECT_EQ(S.*(Rows[Row].Field), Want) << Metric;
    char Line[128];
    std::snprintf(Line, sizeof(Line), "%-20s %14llu %11llu\n", Label,
                  static_cast<unsigned long long>(2 * Want),
                  static_cast<unsigned long long>(Want));
    EXPECT_NE(Report.find(Line), std::string::npos) << Line;
    std::string Total = std::string(Metric) + " " + std::to_string(2 * Want);
    std::string PerVp =
        std::string(Metric) + "{vp=\"0\"} " + std::to_string(Want);
    EXPECT_NE(Scrape.find(Total + "\n"), std::string::npos) << Total;
    EXPECT_NE(Scrape.find(PerVp + "\n"), std::string::npos) << PerVp;
    ++Want;
    ++Row;
  };
#define COUNTER_CHECK(Field, Label, Metric)                                    \
  Check(S.Field, Sum.Field, Label, Metric);
  STING_SCHED_COUNTERS(COUNTER_CHECK)
#undef COUNTER_CHECK
  Check(S.TraceEvents, Sum.TraceEvents, "trace events",
        "sting_trace_events_total");
  Check(S.TraceDrops, Sum.TraceDrops, "trace drops",
        "sting_trace_drops_total");
  EXPECT_EQ(Row, NumRows);

  // The served labels and metric names, pinned (row order may change).
  const std::set<std::pair<std::string, std::string>> Pinned = {
      {"enqueues", "sting_enqueues_total"},
      {"dequeues", "sting_dequeues_total"},
      {"stale skips", "sting_stale_skips_total"},
      {"mailbox posts", "sting_mailbox_posts_total"},
      {"mailbox drains", "sting_mailbox_drains_total"},
      {"dispatches", "sting_dispatches_total"},
      {"  fresh binds", "sting_fresh_binds_total"},
      {"  resumes", "sting_resumes_total"},
      {"yields", "sting_yields_total"},
      {"parks", "sting_parks_total"},
      {"exits", "sting_exits_total"},
      {"idle calls", "sting_idle_calls_total"},
      {"tcb reuses", "sting_tcb_reuses_total"},
      {"tcb allocs", "sting_tcb_allocs_total"},
      {"steals attempted", "sting_steals_attempted_total"},
      {"steals succeeded", "sting_steals_succeeded_total"},
      {"steals failed", "sting_steals_failed_total"},
      {"deque steals", "sting_deque_steals_total"},
      {"deque steal cas", "sting_deque_steal_cas_total"},
      {"vp parks", "sting_vp_parks_total"},
      {"vp unparks", "sting_vp_unparks_total"},
      {"preempts delivered", "sting_preempts_delivered_total"},
      {"preempts deferred", "sting_preempts_deferred_total"},
      {"threads created", "sting_threads_created_total"},
      {"threads terminated", "sting_threads_terminated_total"},
      {"blocks", "sting_blocks_total"},
      {"wakeups", "sting_wakeups_total"},
      {"net accepts", "sting_net_accepts_total"},
      {"net reads", "sting_net_reads_total"},
      {"net writes", "sting_net_writes_total"},
      {"net bp stalls", "sting_net_backpressure_stalls_total"},
      {"net retries", "sting_net_retries_total"},
      {"net breaker opens", "sting_net_breaker_opens_total"},
      {"net shedded", "sting_net_shedded_total"},
      {"pool checkout waits", "sting_pool_checkout_waits_total"},
      {"tuple handoffs", "sting_tuple_handoffs_total"},
      {"tuple wakeups", "sting_tuple_wakeups_total"},
      {"tuple local handoffs", "sting_tuple_local_handoffs_total"},
      {"router routes", "sting_router_routes_total"},
      {"router fanouts", "sting_router_fanouts_total"},
      {"router retracts", "sting_router_retracts_total"},
      {"router failovers", "sting_router_failovers_total"},
      {"repl forwards", "sting_repl_forwards_total"},
      {"repl promotions", "sting_repl_promotions_total"},
      {"repl catchup tuples", "sting_repl_catchup_tuples_total"},
      {"trace events", "sting_trace_events_total"},
      {"trace drops", "sting_trace_drops_total"},
  };
  std::set<std::pair<std::string, std::string>> Served;
  for (std::size_t I = 0; I != NumRows; ++I)
    Served.emplace(Rows[I].Name, Rows[I].MetricName);
  EXPECT_EQ(Served, Pinned);
}

#ifdef STING_TRACE
TEST(CountersTest, TracedWorkloadFillsRingsAndExports) {
  VmConfig Config;
  Config.NumVps = 2;
  Config.NumPps = 2;
  Config.EnableTracing = true;
  Config.TraceCapacity = 1 << 10;
  VirtualMachine Vm(Config);

  Vm.run([]() -> AnyValue {
    std::vector<ThreadRef> Workers;
    SpawnOptions Opts;
    Opts.Stealable = false;
    for (int I = 0; I != 32; ++I)
      Workers.push_back(TC::forkThread(
          []() -> AnyValue {
            for (int J = 0; J != 4; ++J)
              TC::yieldProcessor();
            return AnyValue();
          },
          Opts));
    for (ThreadRef &W : Workers)
      TC::threadWait(*W);
    return AnyValue();
  });

  std::vector<obs::VpTraceSnapshot> Snaps = Vm.snapshotTrace();
  ASSERT_EQ(Snaps.size(), 2u);
  std::size_t TotalEvents = 0;
  for (const obs::VpTraceSnapshot &S : Snaps)
    TotalEvents += S.Events.size();
  EXPECT_GT(TotalEvents, 32u);

  std::string Path = ::testing::TempDir() + "sting_counters_trace.json";
  ASSERT_TRUE(Vm.writeChromeTrace(Path, "counters-test"));
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  std::string Content;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Content.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());

  EXPECT_NE(Content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Content.find("counters-test"), std::string::npos);
  EXPECT_NE(Content.find("\"vp0\""), std::string::npos);
  EXPECT_NE(Content.find("\"vp1\""), std::string::npos);
}

TEST(CountersTest, SetTracingEnabledGatesEmission) {
  VmConfig Config;
  Config.NumVps = 1;
  Config.EnableTracing = true;
  VirtualMachine Vm(Config);

  Vm.setTracingEnabled(false);
  Vm.run([]() -> AnyValue {
    TC::yieldProcessor();
    return AnyValue();
  });
  std::vector<obs::VpTraceSnapshot> Off = Vm.snapshotTrace();
  ASSERT_EQ(Off.size(), 1u);
  EXPECT_TRUE(Off[0].Events.empty());

  Vm.setTracingEnabled(true);
  Vm.run([]() -> AnyValue {
    TC::yieldProcessor();
    return AnyValue();
  });
  std::vector<obs::VpTraceSnapshot> On = Vm.snapshotTrace();
  EXPECT_FALSE(On[0].Events.empty());
}
#endif // STING_TRACE

} // namespace
