//===- tests/core/StealTest.cpp - Thread stealing (paper 4.1.1) -------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// Pins the dynamics of Fig. 4: touching a delayed or scheduled stealable
// thread evaluates its thunk on the toucher's TCB — no context switch, no
// new TCB — and the thread becomes determined.
//
//===----------------------------------------------------------------------===//

#include "core/Current.h"
#include "core/PhysicalProcessor.h"
#include "core/Tcb.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "gtest/gtest.h"

#include <atomic>
#include <sched.h>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

TEST(StealTest, TouchingDelayedThreadStealsIt) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    Tcb *MyTcb = currentTcb();
    Tcb *StolenTcb = nullptr;
    ThreadRef T = TC::createThread([&StolenTcb]() -> AnyValue {
      StolenTcb = currentTcb(); // runs on the toucher's TCB
      return AnyValue(10);
    });
    int Result = TC::threadValue(*T).as<int>();
    return AnyValue(Result == 10 && StolenTcb == MyTcb);
  });
  EXPECT_TRUE(V.as<bool>());
  obs::SchedStatsSnapshot Sched = Vm.aggregateStats();
  EXPECT_GE(Sched.StealsSucceeded, 1u);
  EXPECT_GE(Sched.StealsAttempted, Sched.StealsSucceeded);
}

TEST(StealTest, StolenThreadReportsItselfAsCurrent) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadRef T = TC::createThread([]() -> AnyValue {
      // The stolen thread, not the stealer, is "current" while its thunk
      // runs on the stealer's TCB.
      return AnyValue(currentThread());
    });
    Thread *Observed = TC::threadValue(*T).as<Thread *>();
    return AnyValue(Observed == T.get());
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(StealTest, CurrentThreadRestoredAfterSteal) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    Thread *Me = currentThread();
    ThreadRef T = TC::createThread([]() -> AnyValue { return AnyValue(); });
    TC::threadWait(*T);
    return AnyValue(currentThread() == Me);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(StealTest, NonStealableThreadIsNotStolen) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    SpawnOptions Opts;
    Opts.Stealable = false;
    ThreadRef T = TC::forkThread(
        []() -> AnyValue { return AnyValue(4); }, Opts);
    // threadValue must block-and-wait, not inline the thunk.
    int Result = TC::threadValue(*T).as<int>();
    return AnyValue(Result);
  });
  EXPECT_EQ(V.as<int>(), 4);
  EXPECT_EQ(Vm.aggregateStats().StealsSucceeded, 0u);
}

TEST(StealTest, ScheduledThreadStolenBeforeDispatchIsSkipped) {
  // One VP: the scheduled thread sits behind the toucher in the queue; the
  // touch steals it; the queue's stale entry is skipped at dispatch.
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadRef T = TC::forkThread([]() -> AnyValue { return AnyValue(21); });
    EXPECT_EQ(T->state(), ThreadState::Scheduled);
    int Result = TC::threadValue(*T).as<int>();
    return AnyValue(Result);
  });
  EXPECT_EQ(V.as<int>(), 21);
  EXPECT_GE(Vm.aggregateStats().StealsSucceeded, 1u);
  // Let the scheduler drain the stale entry before checking.
  std::uint64_t Skipped = 0;
  for (int I = 0; I != 1000 && !Skipped; ++I) {
    sched_yield();
    Skipped = Vm.vp(0).stats().SkippedStale;
  }
  EXPECT_GE(Skipped, 1u);
}

TEST(StealTest, StaleEntriesAreDroppedWithoutASchedulerLap) {
  // VP 1 is busy with a spinner while a thread on VP 0 forks N stealable
  // threads onto it, steals every one, and queues a marker behind them.
  // Once the spinner exits, VP 1 drops the N stale entries and runs the
  // marker in the same stretch on its PP: no dispatch between them, and
  // no yield to the PP per SliceDispatches (64) stale entries, which
  // would switch VP 1 in again N / 64 times.
  constexpr int N = 512;
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  VirtualProcessor &Vp1 = Vm.vp(1);
  struct Reading {
    std::uint64_t Stale, Dispatches, Switches;
  };
  // Taken on VP 1's own OS thread, which writes all three.
  auto Read = [&Vp1] {
    return Reading{Vp1.stats().SkippedStale, Vp1.stats().Dispatches,
                   Vp1.physicalProcessor()->vpSwitches()};
  };
  Reading AtSpinnerExit{}, AtMarker{};
  std::atomic<bool> Spinning{false};
  std::atomic<bool> Release{false};
  SpawnOptions Pinned;
  Pinned.Vp = &Vp1;
  Pinned.Stealable = false;
  ThreadRef Spinner = Vm.fork(
      [&]() -> AnyValue {
        Spinning.store(true);
        while (!Release.load())
          sched_yield();
        AtSpinnerExit = Read();
        return AnyValue();
      },
      Pinned);
  while (!Spinning.load())
    sched_yield();

  ThreadRef Marker;
  SpawnOptions OnVp0;
  OnVp0.Vp = &Vm.vp(0);
  Vm.run(
      [&]() -> AnyValue {
        SpawnOptions OnVp1;
        OnVp1.Vp = &Vp1;
        std::vector<ThreadRef> Queued;
        for (int I = 0; I != N; ++I)
          Queued.push_back(
              TC::forkThread([I]() -> AnyValue { return AnyValue(I); }, OnVp1));
        for (ThreadRef &T : Queued)
          EXPECT_TRUE(TC::trySteal(*T));
        Marker = TC::forkThread(
            [&]() -> AnyValue {
              AtMarker = Read();
              return AnyValue();
            },
            Pinned);
        return AnyValue();
      },
      OnVp0);
  Release.store(true);
  Spinner->join();
  Marker->join();

  EXPECT_EQ(AtMarker.Stale - AtSpinnerExit.Stale, static_cast<unsigned>(N));
  EXPECT_EQ(AtMarker.Dispatches - AtSpinnerExit.Dispatches, 1u)
      << "only the marker's own dispatch";
  // The spinner may outrun its VP's slice on the PP, so VP 1 can yield
  // once on its way out.
  EXPECT_LE(AtMarker.Switches - AtSpinnerExit.Switches, 1u);

  obs::SchedStatsSnapshot S = Vm.aggregateStats();
  for (int I = 0; I != 2000 && S.Enqueues != S.Dequeues; ++I) {
    sched_yield();
    S = Vm.aggregateStats();
  }
  EXPECT_EQ(S.Enqueues, S.Dequeues);
}

TEST(StealTest, StackBoundRefusesADeepStealAndTheChainBlocks) {
  // Each delayed link touches its predecessor, so the chain nests one
  // steal per link on the toucher's stack — far more links than a 64 KiB
  // stack holds. The bound refuses a steal, the refused link blocks,
  // which schedules its predecessor on a fresh TCB, and the chain still
  // completes.
  constexpr int Links = 1000;
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1, .StackSize = 64 * 1024});
  AnyValue V = Vm.run([]() -> AnyValue {
    std::vector<ThreadRef> Chain;
    Chain.push_back(
        TC::createThread([]() -> AnyValue { return AnyValue(1); }));
    for (int I = 1; I != Links; ++I)
      Chain.push_back(TC::createThread([Prev = Chain.back()]() -> AnyValue {
        return AnyValue(TC::threadValue(*Prev).as<int>() + 1);
      }));
    return AnyValue(TC::threadValue(*Chain.back()).as<int>());
  });
  EXPECT_EQ(V.as<int>(), Links);
  obs::SchedStatsSnapshot S = Vm.aggregateStats();
  // One VP and only delayed links: nothing but the bound refuses a steal.
  EXPECT_GE(S.StealsFailed, 1u);
  EXPECT_GE(S.StealsSucceeded, 1u);
  EXPECT_EQ(S.StealsSucceeded + S.StealsFailed, S.StealsAttempted);
}

TEST(StealTest, NestedStealsUnfoldDependencyChain) {
  // futures-style chain: each delayed thread demands its predecessor.
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    std::vector<ThreadRef> Chain;
    Chain.push_back(
        TC::createThread([]() -> AnyValue { return AnyValue(1); }));
    for (int I = 1; I != 20; ++I) {
      Thread *Prev = Chain.back().get();
      ThreadRef PrevRef = Chain.back();
      Chain.push_back(TC::createThread([PrevRef]() -> AnyValue {
        return AnyValue(TC::threadValue(*PrevRef).as<int>() + 1);
      }));
      (void)Prev;
    }
    return AnyValue(TC::threadValue(*Chain.back()).as<int>());
  });
  EXPECT_EQ(V.as<int>(), 20);
  EXPECT_GE(Vm.aggregateStats().StealsSucceeded, 19u);
}

TEST(StealTest, TerminateRequestDuringStealKillsBoth) {
  VirtualMachine Vm(VmConfig{.EnablePreemption = true});
  std::atomic<bool> StealerStarted{false};
  std::atomic<bool> StolenSpinning{false};
  std::atomic<bool> Stop{false};
  ThreadRef Stealer = Vm.fork([&]() -> AnyValue {
    StealerStarted.store(true);
    ThreadRef Inner = TC::createThread([&]() -> AnyValue {
      StolenSpinning.store(true);
      while (!Stop.load())
        TC::checkpoint();
      return AnyValue();
    });
    TC::threadWait(*Inner); // steals Inner, spins inside it
    return AnyValue();
  });
  while (!StolenSpinning.load())
    sched_yield();
  // Terminating the stealer aborts the stolen evaluation too (they share
  // one TCB; paper 4.1.1's shared-fate caveat).
  EXPECT_TRUE(TC::threadTerminate(*Stealer));
  Stealer->join();
  EXPECT_TRUE(Stealer->wasTerminated());
}

TEST(StealTest, TerminateSelfInsideStolenThunkOnlyKillsStolenThread) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadRef Inner = TC::createThread(
        []() -> AnyValue { TC::terminateSelf(AnyValue(13)); });
    TC::threadWait(*Inner); // steal; terminateSelf unwinds just the thunk
    bool InnerTerminated =
        Inner->wasTerminated() && Inner->result().as<int>() == 13;
    return AnyValue(InnerTerminated); // stealer survives to return this
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(StealTest, LifoPolicyStealsMoreThanFifo) {
  // Paper 4.1.1: under LIFO the latest threads run first, so touches of
  // earlier (still-scheduled) threads steal them; preemptible FIFO runs
  // threads in creation order and "stealing operations will be minimal".
  auto CountSteals = [](PolicyFactory Policy) {
    VirtualMachine Vm(VmConfig{
        .NumVps = 1, .NumPps = 1, .Policy = std::move(Policy)});
    Vm.run([]() -> AnyValue {
      // A dependency chain like the primes program: thread I demands the
      // value of thread I-1.
      std::vector<ThreadRef> Futures;
      Futures.push_back(
          TC::forkThread([]() -> AnyValue { return AnyValue(1); }));
      for (int I = 1; I != 32; ++I) {
        ThreadRef Prev = Futures.back();
        Futures.push_back(TC::forkThread([Prev]() -> AnyValue {
          return AnyValue(TC::threadValue(*Prev).as<int>() + 1);
        }));
      }
      // Block (without stealing) so the ready queue's order decides which
      // thread runs first.
      Thread *Last = Futures.back().get();
      TC::blockOnGroup(1, std::span<Thread *const>(&Last, 1));
      return AnyValue(Futures.back()->result().as<int>());
    });
    return Vm.aggregateStats().StealsSucceeded;
  };

  // FIFO runs the chain in dependency order: every touch finds its input
  // already determined; no steals. LIFO runs the *newest* thread first:
  // every touch finds its input still scheduled and steals it.
  std::uint64_t FifoSteals = CountSteals(makeLocalFifoPolicy());
  std::uint64_t LifoSteals = CountSteals(makeLocalLifoPolicy());
  EXPECT_GT(LifoSteals, FifoSteals);
  EXPECT_GE(LifoSteals, 16u);
}

} // namespace
