//===- tests/core/StressTest.cpp - Randomized scheduler stress ---------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// Property-style sweeps driving the whole substrate with randomized
// operation mixes across seeds, policies and machine shapes. Invariants
// checked: every forked thread determines exactly once with its own
// value, no wakeup is lost, and the machine drains cleanly.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadController.h"

#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "support/Random.h"
#include "sync/Barrier.h"
#include "sync/Mutex.h"
#include "gtest/gtest.h"

#include <atomic>

namespace {

using namespace sting;
using TC = ThreadController;

struct StressCase {
  std::uint64_t Seed;
  unsigned Vps;
  unsigned Pps;
  PolicyFactory (*Policy)();
  const char *Name;
};

class SchedulerStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(SchedulerStressTest, RandomOpMixDrainsCleanly) {
  const StressCase &Case = GetParam();
  VmConfig Config;
  Config.NumVps = Case.Vps;
  Config.NumPps = Case.Pps;
  Config.EnablePreemption = true;
  Config.DefaultQuantumNanos = 300'000;
  Config.PreemptTickNanos = 150'000;
  Config.Policy = Case.Policy();
  VirtualMachine Vm(Config);

  constexpr int NumThreads = 120;
  std::atomic<long> Sum{0};

  AnyValue V = Vm.run([&]() -> AnyValue {
    Xoshiro256 Rng(Case.Seed);
    std::vector<ThreadRef> All;
    Mutex Shared;
    long Guarded = 0;

    for (int I = 0; I != NumThreads; ++I) {
      const int Kind = static_cast<int>(Rng.nextBelow(6));
      const int Payload = static_cast<int>(Rng.nextBelow(1000));
      SpawnOptions Opts;
      Opts.Stealable = Rng.nextBelow(2) == 0;
      Opts.Priority = static_cast<int>(Rng.nextBelow(5));

      switch (Kind) {
      case 0: // plain compute
        All.push_back(TC::forkThread(
            [Payload, &Sum]() -> AnyValue {
              Sum.fetch_add(Payload);
              return AnyValue(Payload);
            },
            Opts));
        break;
      case 1: // yields mid-way
        All.push_back(TC::forkThread(
            [Payload, &Sum]() -> AnyValue {
              for (int J = 0; J != Payload % 7; ++J)
                TC::yieldProcessor();
              Sum.fetch_add(Payload);
              return AnyValue(Payload);
            },
            Opts));
        break;
      case 2: // delayed, demanded later via stealing (futures are
               // stealable by definition; a lazy non-stealable thread that
               // nobody schedules would deadlock its waiters)
        Opts.Stealable = true;
        All.push_back(TC::createThread(
            [Payload, &Sum]() -> AnyValue {
              Sum.fetch_add(Payload);
              return AnyValue(Payload);
            },
            Opts));
        break;
      case 3: // timed suspend
        All.push_back(TC::forkThread(
            [Payload, &Sum]() -> AnyValue {
              TC::threadSuspend(std::uint64_t(Payload % 3) * 100'000 + 1);
              Sum.fetch_add(Payload);
              return AnyValue(Payload);
            },
            Opts));
        break;
      case 4: // mutex-guarded increment
        All.push_back(TC::forkThread(
            [Payload, &Shared, &Guarded, &Sum]() -> AnyValue {
              withMutex(Shared, [&] { Guarded += 1; });
              Sum.fetch_add(Payload);
              return AnyValue(Payload);
            },
            Opts));
        break;
      case 5: // waits on a random earlier thread
        if (!All.empty()) {
          ThreadRef Dep = All[Rng.nextBelow(All.size())];
          All.push_back(TC::forkThread(
              [Payload, Dep, &Sum]() -> AnyValue {
                TC::threadWait(*Dep);
                Sum.fetch_add(Payload);
                return AnyValue(Payload);
              },
              Opts));
        } else {
          All.push_back(TC::forkThread(
              [Payload, &Sum]() -> AnyValue {
                Sum.fetch_add(Payload);
                return AnyValue(Payload);
              },
              Opts));
        }
        break;
      }
    }

    // Demand everything; remaining delayed threads are stolen here.
    long Check = 0;
    for (auto &T : All)
      Check += TC::threadValue(*T).as<int>();

    long MutexRuns = Guarded;
    return AnyValue(Check + (MutexRuns << 32));
  });

  const long Packed = V.as<long>();
  EXPECT_EQ(Packed & 0xffffffff, Sum.load()) << Case.Name;
  EXPECT_GE(Vm.aggregateStats().ThreadsTerminated,
            static_cast<std::uint64_t>(NumThreads));
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SchedulerStressTest,
    ::testing::Values(
        StressCase{1, 1, 1, &makeLocalFifoPolicy, "fifo_1vp"},
        StressCase{2, 2, 1, &makeLocalFifoPolicy, "fifo_2vp"},
        StressCase{3, 4, 2, &makeLocalFifoPolicy, "fifo_4vp2pp"},
        StressCase{4, 2, 1, &makeLocalLifoPolicy, "lifo_2vp"},
        StressCase{5, 4, 2, &makeGlobalFifoPolicy, "global_4vp2pp"},
        StressCase{6, 4, 1, &makePriorityPolicy, "priority_4vp"},
        StressCase{7, 4, 2, &makeStealHalfPolicy, "steal_4vp2pp"},
        StressCase{8, 3, 3, &makeLocalFifoPolicy, "fifo_3vp3pp"}),
    [](const ::testing::TestParamInfo<StressCase> &Info) {
      return std::string(Info.param.Name) + "_seed" +
             std::to_string(Info.param.Seed);
    });

TEST(StressTest, ManyMachinesConcurrently) {
  // "Multiple virtual machines can execute on a single physical machine"
  // (paper section 2): distinct VMs must not interfere.
  std::vector<std::unique_ptr<VirtualMachine>> Machines;
  for (int I = 0; I != 4; ++I)
    Machines.push_back(std::make_unique<VirtualMachine>(
        VmConfig{.NumVps = 2, .NumPps = 1}));

  std::vector<ThreadRef> Roots;
  for (int I = 0; I != 4; ++I)
    Roots.push_back(Machines[I]->fork([I]() -> AnyValue {
      long Sum = 0;
      std::vector<ThreadRef> Kids;
      for (int J = 0; J != 20; ++J)
        Kids.push_back(TC::forkThread(
            [I, J]() -> AnyValue { return AnyValue(I * 100 + J); }));
      for (auto &K : Kids)
        Sum += TC::threadValue(*K).as<int>();
      return AnyValue(Sum);
    }));

  for (int I = 0; I != 4; ++I) {
    Roots[I]->join();
    long Expect = 0;
    for (int J = 0; J != 20; ++J)
      Expect += I * 100 + J;
    EXPECT_EQ(Roots[I]->valueAs<long>(), Expect);
  }
}

TEST(StressTest, ForkJoinChurnReusesTcbs) {
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  Vm.run([]() -> AnyValue {
    SpawnOptions Opts;
    Opts.Stealable = false;
    for (int Round = 0; Round != 2000; ++Round) {
      ThreadRef T = TC::forkThread(
          [Round]() -> AnyValue { return AnyValue(Round); }, Opts);
      if (TC::threadValue(*T).as<int>() != Round)
        return AnyValue(false);
    }
    return AnyValue(true);
  });
  // After warmup every fork must be served from the TCB cache.
  EXPECT_GT(Vm.vp(0).stats().TcbReuses, 1900u);
  EXPECT_LT(Vm.vp(0).stats().TcbAllocs, 64u);
}

TEST(StressTest, BarrierChurn) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .EnablePreemption = true});
  AnyValue V = Vm.run([]() -> AnyValue {
    CyclicBarrier Barrier(3);
    std::atomic<long> Total{0};
    std::vector<ThreadRef> Pool;
    for (int W = 0; W != 3; ++W)
      Pool.push_back(TC::forkThread([&]() -> AnyValue {
        for (int Phase = 0; Phase != 200; ++Phase) {
          Total.fetch_add(1);
          Barrier.arriveAndWait();
        }
        return AnyValue();
      }));
    waitForAll(Pool);
    return AnyValue(Total.load());
  });
  EXPECT_EQ(V.as<long>(), 600);
}

} // namespace
