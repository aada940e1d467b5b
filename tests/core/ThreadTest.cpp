//===- tests/core/ThreadTest.cpp - Thread lifecycle -------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/Thread.h"

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/ThreadGroup.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "obs/Flow.h"
#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace sting;

TEST(ThreadTest, MachineConstructsAndDestructs) {
  VirtualMachine Vm;
  EXPECT_EQ(Vm.numVps(), 2u);
}

TEST(ThreadTest, ForkRunsAndJoins) {
  VirtualMachine Vm;
  std::atomic<bool> Ran{false};
  ThreadRef T = Vm.fork([&]() -> AnyValue {
    Ran.store(true);
    return AnyValue(42);
  });
  T->join();
  EXPECT_TRUE(Ran.load());
  EXPECT_TRUE(T->isDetermined());
  EXPECT_EQ(T->valueAs<int>(), 42);
  EXPECT_FALSE(T->wasTerminated());
  EXPECT_FALSE(T->failed());
}

TEST(ThreadTest, RunReturnsValue) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue { return AnyValue(7); });
  EXPECT_EQ(V.as<int>(), 7);
}

TEST(ThreadTest, JoinIsIdempotent) {
  VirtualMachine Vm;
  ThreadRef T = Vm.fork([]() -> AnyValue { return AnyValue(1); });
  T->join();
  T->join();
  EXPECT_EQ(T->valueAs<int>(), 1);
}

TEST(ThreadTest, ManyThreadsAllComplete) {
  VirtualMachine Vm;
  std::atomic<int> Count{0};
  std::vector<ThreadRef> Threads;
  for (int I = 0; I != 200; ++I)
    Threads.push_back(Vm.fork([&]() -> AnyValue {
      Count.fetch_add(1);
      return AnyValue();
    }));
  for (auto &T : Threads)
    T->join();
  EXPECT_EQ(Count.load(), 200);
}

TEST(ThreadTest, DelayedThreadDoesNotRunUnlessDemanded) {
  VirtualMachine Vm;
  std::atomic<bool> Ran{false};
  ThreadRef T = Vm.createThread([&]() -> AnyValue {
    Ran.store(true);
    return AnyValue();
  });
  EXPECT_EQ(T->state(), ThreadState::Delayed);
  // Paper: "a delayed thread will never be run unless the value of the
  // thread is explicitly demanded."
  EXPECT_FALSE(Ran.load());
}

TEST(ThreadTest, ThreadRunSchedulesDelayedThread) {
  VirtualMachine Vm;
  ThreadRef T = Vm.createThread([]() -> AnyValue { return AnyValue(9); });
  ThreadController::threadRun(*T);
  T->join();
  EXPECT_EQ(T->valueAs<int>(), 9);
}

TEST(ThreadTest, ExternalJoinStealsDelayedThread) {
  VirtualMachine Vm;
  ThreadRef T = Vm.createThread([]() -> AnyValue { return AnyValue(3); });
  T->join(); // join demands the value: inline steal
  EXPECT_EQ(T->state(), ThreadState::Determined);
  EXPECT_EQ(T->valueAs<int>(), 3);
}

TEST(ThreadTest, ExceptionPropagatesToJoiner) {
  VirtualMachine Vm;
  ThreadRef T = Vm.fork(
      []() -> AnyValue { throw std::runtime_error("boom"); });
  T->join();
  EXPECT_TRUE(T->failed());
  EXPECT_THROW(T->rethrowIfFailed(), std::runtime_error);
}

TEST(ThreadTest, ExplicitVpPlacement) {
  VirtualMachine Vm(VmConfig{.NumVps = 4});
  for (unsigned I = 0; I != 4; ++I) {
    SpawnOptions Opts;
    Opts.Vp = &Vm.vp(I);
    ThreadRef T = Vm.fork(
        [I]() -> AnyValue {
          return AnyValue(currentVp()->index() == I);
        },
        Opts);
    T->join();
    EXPECT_TRUE(T->valueAs<bool>()) << "thread pinned to VP " << I;
  }
}

TEST(ThreadTest, NestedForkFromInsideThread) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadRef Child = ThreadController::forkThread(
        []() -> AnyValue { return AnyValue(5); });
    return AnyValue(ThreadController::threadValue(*Child).as<int>() + 1);
  });
  EXPECT_EQ(V.as<int>(), 6);
}

TEST(ThreadTest, GenealogyParentAndGroup) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([&]() -> AnyValue {
    Thread *Self = currentThread();
    std::uint64_t SelfId = Self->id();
    ThreadRef Child = ThreadController::forkThread([SelfId]() -> AnyValue {
      Thread *Me = currentThread();
      return AnyValue(Me->parentId() == SelfId);
    });
    bool ChildSawParent =
        ThreadController::threadValue(*Child).as<bool>();
    bool SameGroup = Child->group() == Self->group();
    return AnyValue(ChildSawParent && SameGroup);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ThreadTest, NoGenealogyOption) {
  VirtualMachine Vm;
  SpawnOptions Opts;
  Opts.NoGenealogy = true;
  ThreadRef T = Vm.fork([]() -> AnyValue { return AnyValue(); }, Opts);
  T->join();
  EXPECT_EQ(T->parentId(), 0u);
  EXPECT_EQ(T->group(), nullptr);
}

/// Counts its own destruction; a thread's result holds one, so the count
/// shows whether the thread itself was freed.
struct DtorCounter {
  std::atomic<int> *Count;
  explicit DtorCounter(std::atomic<int> &C) : Count(&C) {}
  DtorCounter(DtorCounter &&O) noexcept
      : Count(std::exchange(O.Count, nullptr)) {}
  ~DtorCounter() {
    if (Count)
      Count->fetch_add(1);
  }
};

struct ParentResult {
  DtorCounter Tag;
  std::vector<ThreadRef> Children;
};

// A parent whose result holds its children: the children must not hold
// the parent in turn, or neither is ever freed.
TEST(ThreadTest, ParentReturningItsChildrenIsFreed) {
  constexpr int NumChildren = 4;
  std::atomic<int> Freed{0};
  VirtualMachine Vm;
  ThreadRef Parent = Vm.fork([&Freed]() -> AnyValue {
    ParentResult R{DtorCounter(Freed), {}};
    for (int I = 0; I != NumChildren; ++I)
      R.Children.push_back(ThreadController::forkThread(
          [&Freed]() -> AnyValue { return AnyValue(DtorCounter(Freed)); }));
    for (ThreadRef &C : R.Children)
      ThreadController::threadValue(*C);
    return AnyValue(std::move(R));
  });
  Parent->join();
  EXPECT_EQ(Freed.load(), 0);
  Parent.reset();
  // A VP may still hold a reference for a moment after the join returns.
  for (int I = 0; I != 2000 && Freed.load() != 1 + NumChildren; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Freed.load(), 1 + NumChildren)
      << "the parent or a child outlived its last outside reference";
}

TEST(ThreadTest, ThreadIdsAreUnique) {
  VirtualMachine Vm;
  ThreadRef A = Vm.fork([]() -> AnyValue { return AnyValue(); });
  ThreadRef B = Vm.fork([]() -> AnyValue { return AnyValue(); });
  EXPECT_NE(A->id(), B->id());
  A->join();
  B->join();
}

TEST(ThreadTest, SingleVpSinglePpMachine) {
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadRef C = ThreadController::forkThread(
        []() -> AnyValue { return AnyValue(11); });
    return AnyValue(ThreadController::threadValue(*C).as<int>());
  });
  EXPECT_EQ(V.as<int>(), 11);
}

TEST(ThreadTest, StatsCountCreationsAndDeterminations) {
  VirtualMachine Vm;
  ThreadRef T = Vm.fork([]() -> AnyValue { return AnyValue(); });
  T->join();
  EXPECT_GE(Vm.aggregateStats().ThreadsCreated, 1u);
  EXPECT_GE(Vm.aggregateStats().ThreadsTerminated, 1u);
}

TEST(ThreadTest, CreatedEqualsDeterminedOnEveryPath) {
  // Thread::determine has five callers, and a thread dropped before it
  // ever ran never determines. Each path must charge exactly one
  // determination, so the per-VP sums balance once the machine is quiet.
  VirtualMachine Vm;
  using TC = ThreadController;
  auto ExpectBalanced = [&](const char *Path) {
    obs::SchedStatsSnapshot S = Vm.aggregateStats();
    EXPECT_EQ(S.ThreadsCreated, S.ThreadsTerminated) << Path;
  };
  auto Nop = []() -> AnyValue { return AnyValue(); };

  // 1. The thunk returns on its own TCB (exitCurrent).
  Vm.fork(Nop)->join();
  ExpectBalanced("run to completion");

  // 2. A sting thread touches a delayed thread and steals it (runStolen).
  Vm.run([&]() -> AnyValue {
    TC::threadWait(*TC::createThread(Nop));
    return AnyValue();
  });
  ExpectBalanced("steal on a TCB");

  // 3. An external joiner steals a delayed thread (Thread::join).
  Vm.createThread(Nop)->join();
  ExpectBalanced("external join steal");

  // 4. A thread terminated before it ever ran, from inside and outside.
  Vm.run([&]() -> AnyValue {
    TC::threadTerminate(*TC::createThread(Nop));
    return AnyValue();
  });
  TC::threadTerminate(*Vm.createThread(Nop));
  ExpectBalanced("terminate before start");

  // 5. An exception raised in a thread before it ever ran.
  auto Boom = std::make_exception_ptr(std::runtime_error("boom"));
  Vm.run([&]() -> AnyValue {
    TC::raiseIn(*TC::createThread(Nop), Boom);
    return AnyValue();
  });
  TC::raiseIn(*Vm.createThread(Nop), Boom);
  ExpectBalanced("raise before start");

  // 6. A delayed thread dropped before it ever ran, inside and outside.
  Vm.run([&]() -> AnyValue {
    (void)TC::createThread(Nop);
    return AnyValue();
  });
  (void)Vm.createThread(Nop);
  ExpectBalanced("dropped before start");

  EXPECT_GE(Vm.aggregateStats().ThreadsCreated, 12u);
}

TEST(ThreadTest, IdsAreUniqueAcrossVps) {
  // VPs hand out ids from per-VP blocks and outside callers take single
  // ids; either way no two threads of one machine share an id.
  constexpr unsigned NumVps = 4;
  constexpr int PerVp = 1000;
  VirtualMachine Vm(VmConfig{.NumVps = NumVps, .NumPps = 2});
  std::vector<ThreadRef> Forkers;
  for (unsigned I = 0; I != NumVps; ++I) {
    SpawnOptions Opts;
    Opts.Vp = &Vm.vp(I);
    Forkers.push_back(Vm.fork(
        [I]() -> AnyValue {
          std::vector<ThreadRef> Kids;
          std::vector<std::uint64_t> Ids;
          bool OnOwnVp = true;
          for (int K = 0; K != PerVp; ++K) {
            OnOwnVp &= currentVp()->index() == I;
            Kids.push_back(ThreadController::forkThread(
                []() -> AnyValue { return AnyValue(); }));
            Ids.push_back(Kids.back()->id());
          }
          for (const ThreadRef &T : Kids)
            ThreadController::threadWait(*T);
          return AnyValue(OnOwnVp ? Ids : std::vector<std::uint64_t>());
        },
        Opts));
  }
  std::vector<std::uint64_t> All;
  for (int K = 0; K != 100; ++K) {
    ThreadRef T = Vm.fork([]() -> AnyValue { return AnyValue(); });
    All.push_back(T->id());
    T->join();
  }
  for (ThreadRef &D : Forkers) {
    D->join();
    const auto &Ids = D->valueAs<std::vector<std::uint64_t>>();
    EXPECT_EQ(Ids.size(), static_cast<std::size_t>(PerVp))
        << "forker left its VP";
    All.insert(All.end(), Ids.begin(), Ids.end());
  }
  std::set<std::uint64_t> Distinct(All.begin(), All.end());
  EXPECT_EQ(Distinct.size(), All.size());
  EXPECT_EQ(Distinct.count(0), 0u);
}

TEST(ThreadTest, EveryThreadCarriesANonzeroFlowFromBirth) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    return AnyValue(currentThread()->flowId() != 0 &&
                    obs::currentFlowId() == currentThread()->flowId());
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ThreadTest, ForkInheritsCreatorFlow) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    // Mark this thread with a known flow; children must continue it.
    obs::FlowId Marker = obs::newFlowId();
    obs::setCurrentFlowId(Marker);
    currentThread()->setFlowId(Marker);

    ThreadRef Child = ThreadController::forkThread([]() -> AnyValue {
      ThreadRef Grandchild = ThreadController::forkThread([]() -> AnyValue {
        return AnyValue(static_cast<std::uint64_t>(obs::currentFlowId()));
      });
      std::uint64_t GcFlow =
          ThreadController::threadValue(*Grandchild).as<std::uint64_t>();
      return AnyValue(GcFlow == obs::currentFlowId()
                          ? static_cast<std::uint64_t>(obs::currentFlowId())
                          : std::uint64_t(0));
    });
    std::uint64_t ChildFlow =
        ThreadController::threadValue(*Child).as<std::uint64_t>();
    return AnyValue(ChildFlow == Marker);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ThreadTest, ExternalForksStartDistinctFreshFlows) {
  // Forks from an external OS thread (this test driver) have no current
  // flow to continue: each root thread mints its own.
  VirtualMachine Vm;
  ThreadRef A = Vm.fork([]() -> AnyValue {
    return AnyValue(static_cast<std::uint64_t>(obs::currentFlowId()));
  });
  ThreadRef B = Vm.fork([]() -> AnyValue {
    return AnyValue(static_cast<std::uint64_t>(obs::currentFlowId()));
  });
  A->join();
  B->join();
  std::uint64_t FlowA = A->valueAs<std::uint64_t>();
  std::uint64_t FlowB = B->valueAs<std::uint64_t>();
  EXPECT_NE(FlowA, 0u);
  EXPECT_NE(FlowB, 0u);
  EXPECT_NE(FlowA, FlowB);
}

} // namespace
