//===- tests/sync/TimedWaitTest.cpp - Timed blocking (DESIGN.md 7.1) ---------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// Every blocking primitive's timed variant is held to three properties:
//  (a) with no wake, the timeout fires and the call reports it;
//  (b) a wake racing the deadline is never lost (the waiter re-checks the
//      condition before reporting Timeout);
//  (c) a timed-out waiter leaves no residue in the waiter queue.
//
//===----------------------------------------------------------------------===//

#include "core/VirtualMachine.h"
#include "support/Clock.h"
#include "sync/Barrier.h"
#include "sync/Channel.h"
#include "sync/Future.h"
#include "sync/Mutex.h"
#include "sync/ParkList.h"
#include "sync/Semaphore.h"
#include "sync/Speculative.h"
#include "sync/Stream.h"
#include "tuple/TupleSpace.h"

#include "gtest/gtest.h"

#include <atomic>

namespace {

using namespace sting;
using TC = ThreadController;

constexpr std::uint64_t ShortNanos = 2'000'000;   // 2 ms
constexpr std::uint64_t LongNanos = 5'000'000'000; // 5 s (never reached)

//===----------------------------------------------------------------------===//
// ParkList (the shared waiter machinery)
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, ParkListTimeoutFiresAndLeavesNoResidue) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    ParkList P;
    WaitResult R =
        P.awaitUntil([] { return false; }, &P, Deadline::in(ShortNanos));
    EXPECT_EQ(R, WaitResult::Timeout);
    EXPECT_EQ(P.waiterCount(), 0u); // property (c)
    return AnyValue();
  });
}

TEST(TimedWaitTest, ParkListWakeRacingDeadlineWins) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    // The condition flips just as the deadline approaches; the waiter must
    // report Ready, never Timeout, because the condition is re-checked
    // before the deadline on every pass.
    for (int I = 0; I != 50; ++I) {
      ParkList P;
      std::atomic<bool> Flag{false};
      Deadline D = Deadline::in(ShortNanos);
      ThreadRef Waker = TC::forkThread([&]() -> AnyValue {
        while (!D.expired()) {
        }
        Flag.store(true, std::memory_order_release);
        P.wakeAll();
        return AnyValue();
      });
      WaitResult R = P.awaitUntil(
          [&] { return Flag.load(std::memory_order_acquire); }, &P, D);
      if (R == WaitResult::Timeout) {
        // Timeout is only legal while the flag was still false at the last
        // condition check; by now the waker must set it, so verify the
        // wake was genuinely not yet observable rather than lost.
        EXPECT_EQ(P.waiterCount(), 0u);
      }
      TC::threadWait(*Waker);
      // After the waker ran, a fresh wait must see the condition at once.
      EXPECT_EQ(P.awaitUntil([&] { return Flag.load(); }, &P,
                             Deadline::in(ShortNanos)),
                WaitResult::Ready);
      EXPECT_EQ(P.waiterCount(), 0u);
    }
    return AnyValue();
  });
}

TEST(TimedWaitTest, ParkListWakeAllRacingTimeoutsKeepsQueueIntact) {
  VirtualMachine Vm(VmConfig{.NumVps = 4, .NumPps = 4});
  Vm.run([]() -> AnyValue {
    // wakeAll churns while waiters time out of tiny waits: every unlink —
    // a waker's pop or a timed-out waiter's self-retract — must happen
    // under the list lock, or the shared intrusive nodes corrupt.
    ParkList P;
    std::atomic<bool> Stop{false};
    ThreadRef Waker = TC::forkThread([&]() -> AnyValue {
      while (!Stop.load(std::memory_order_acquire)) {
        P.wakeAll();
        TC::yieldProcessor();
      }
      return AnyValue();
    });
    std::vector<ThreadRef> Waiters;
    for (int I = 0; I != 8; ++I)
      Waiters.push_back(TC::forkThread([&]() -> AnyValue {
        for (int J = 0; J != 40; ++J)
          (void)P.awaitUntil([] { return false; }, &P,
                             Deadline::in(ShortNanos / 8));
        return AnyValue();
      }));
    for (auto &W : Waiters)
      TC::threadWait(*W);
    Stop.store(true, std::memory_order_release);
    TC::threadWait(*Waker);
    EXPECT_EQ(P.waiterCount(), 0u);
    return AnyValue();
  });
}

TEST(TimedWaitTest, ReparkStormArmsOneTimerPerDeadline) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([&Vm]() -> AnyValue {
    // Spurious wakes force the waiter back through the park entry many
    // times with the *same* deadline; each pass must reuse the clock
    // timer already armed for it rather than queueing a fresh one.
    ParkList P;
    std::atomic<int> Wakes{0};
    constexpr int N = 50;
    ThreadRef Waker = TC::forkThread([&]() -> AnyValue {
      for (int I = 0; I != N; ++I) {
        Wakes.fetch_add(1, std::memory_order_release);
        P.wakeAll();
        spinForNanos(ShortNanos / 50);
      }
      return AnyValue();
    });
    WaitResult R = P.awaitUntil(
        [&] { return Wakes.load(std::memory_order_acquire) >= N; }, &P,
        Deadline::in(LongNanos));
    EXPECT_EQ(R, WaitResult::Ready);
    TC::threadWait(*Waker);
    EXPECT_LE(Vm.clock().pendingTimers(), 2u);
    return AnyValue();
  });
}

TEST(TimedWaitTest, StaleTimeoutNeverResumesSuspendedThread) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    Semaphore S(0);
    std::atomic<bool> Resumed{false};
    std::atomic<bool> Suspending{false};
    ThreadRef T = TC::forkThread([&]() -> AnyValue {
      // The timed acquire arms a timer; the release below wins the race,
      // so that timer is stale by the time we park again — as a *user*
      // park this time, which a stale kernel timeout must never resume.
      EXPECT_TRUE(S.tryAcquireFor(ShortNanos));
      Suspending.store(true, std::memory_order_release);
      TC::threadSuspend();
      Resumed.store(true, std::memory_order_release);
      return AnyValue();
    });
    spinForNanos(ShortNanos / 4);
    S.release(); // real wake, well before the deadline
    while (!Suspending.load(std::memory_order_acquire))
      TC::yieldProcessor();
    // Outlive the stale timer's deadline; the suspend must hold.
    spinForNanos(ShortNanos * 2);
    EXPECT_FALSE(Resumed.load(std::memory_order_acquire));
    TC::threadRun(*T);
    TC::threadWait(*T);
    EXPECT_TRUE(Resumed.load(std::memory_order_acquire));
    return AnyValue();
  });
}

TEST(TimedWaitTest, ParkListNeverDeadlineBlocksUntilWake) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    ParkList P;
    std::atomic<bool> Flag{false};
    ThreadRef Waker = TC::forkThread([&]() -> AnyValue {
      Flag.store(true, std::memory_order_release);
      P.wakeAll();
      return AnyValue();
    });
    WaitResult R = P.awaitUntil(
        [&] { return Flag.load(std::memory_order_acquire); }, &P,
        Deadline::never());
    EXPECT_EQ(R, WaitResult::Ready);
    TC::threadWait(*Waker);
    return AnyValue();
  });
}

//===----------------------------------------------------------------------===//
// Mutex
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, MutexTimedAcquireTimesOutWhileHeld) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    Mutex M(/*ActiveSpins=*/4, /*PassiveSpins=*/1);
    M.acquire();
    EXPECT_FALSE(M.tryAcquireFor(ShortNanos)); // property (a)
    EXPECT_TRUE(M.isLocked());
    M.release();
    EXPECT_TRUE(M.tryAcquireFor(ShortNanos)); // (c): queue healthy
    M.release();
    return AnyValue();
  });
}

TEST(TimedWaitTest, MutexTimedAcquireSucceedsWhenReleased) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    Mutex M(/*ActiveSpins=*/4, /*PassiveSpins=*/1);
    M.acquire();
    ThreadRef Holder = TC::forkThread([&]() -> AnyValue {
      spinForNanos(ShortNanos / 2);
      M.release();
      return AnyValue();
    });
    EXPECT_TRUE(M.tryAcquireFor(LongNanos)); // property (b)
    M.release();
    TC::threadWait(*Holder);
    return AnyValue();
  });
}

TEST(TimedWaitTest, MutexRepeatedTimeoutsLeaveNoResidue) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    Mutex M(/*ActiveSpins=*/2, /*PassiveSpins=*/1);
    M.acquire();
    for (int I = 0; I != 20; ++I)
      EXPECT_FALSE(M.tryAcquireFor(ShortNanos / 4));
    M.release();
    // A ghost waiter would either swallow this wake or corrupt the list.
    EXPECT_TRUE(M.tryAcquireFor(ShortNanos));
    M.release();
    return AnyValue();
  });
}

//===----------------------------------------------------------------------===//
// Semaphore
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, SemaphoreTimedAcquire) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    Semaphore S(0);
    EXPECT_FALSE(S.tryAcquireFor(ShortNanos)); // (a)
    ThreadRef Poster = TC::forkThread([&]() -> AnyValue {
      spinForNanos(ShortNanos / 2);
      S.release();
      return AnyValue();
    });
    EXPECT_TRUE(S.tryAcquireFor(LongNanos)); // (b)
    TC::threadWait(*Poster);
    // (c): the timed-out wait above must not have left a ghost waiter that
    // eats this permit.
    S.release();
    EXPECT_TRUE(S.tryAcquire());
    EXPECT_EQ(S.available(), 0);
    return AnyValue();
  });
}

//===----------------------------------------------------------------------===//
// Future
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, FutureTouchTimesOutThenCompletes) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    std::atomic<bool> Release{false};
    // Non-stealable: a stealable future would be *stolen* by the toucher
    // (stealing beats any deadline), bypassing the timed blocking path —
    // and this one spins on a flag only the toucher sets.
    SpawnOptions Opts;
    Opts.Stealable = false;
    auto F = future(
        [&]() -> long {
          while (!Release.load(std::memory_order_acquire))
            TC::yieldProcessor();
          return 42;
        },
        Opts);
    EXPECT_EQ(F.touchFor(ShortNanos), nullptr); // (a)
    Release.store(true, std::memory_order_release);
    const long *V = F.touchFor(LongNanos); // (b)
    EXPECT_NE(V, nullptr);
    if (V) {
      EXPECT_EQ(*V, 42);
    }
    EXPECT_EQ(F.touch(), 42); // untimed path still fine after a timeout
    return AnyValue();
  });
}

TEST(TimedWaitTest, FutureTouchUntilOnDeterminedIsImmediate) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    auto F = future([]() -> long { return 7; });
    (void)F.touch();
    const long *V = F.touchFor(0);
    EXPECT_NE(V, nullptr);
    if (V) {
      EXPECT_EQ(*V, 7);
    }
    return AnyValue();
  });
}

//===----------------------------------------------------------------------===//
// Channel
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, ChannelTimedRecvAndSend) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    Channel<int> Ch(2);
    EXPECT_FALSE(Ch.recvFor(ShortNanos).has_value()); // (a) empty

    int A = 1, B = 2, C = 3;
    EXPECT_TRUE(Ch.sendFor(A, ShortNanos));
    EXPECT_TRUE(Ch.sendFor(B, ShortNanos));
    EXPECT_FALSE(Ch.sendFor(C, ShortNanos)); // (a) full
    EXPECT_EQ(C, 3); // value not consumed on timeout

    ThreadRef Drainer = TC::forkThread([&]() -> AnyValue {
      spinForNanos(ShortNanos / 2);
      return AnyValue(long(Ch.recv()));
    });
    EXPECT_TRUE(Ch.sendFor(C, LongNanos)); // (b) a take races the wait
    TC::threadWait(*Drainer);

    // (c): drain; the two queued values come out in order, then empty.
    auto X = Ch.recvFor(ShortNanos);
    auto Y = Ch.recvFor(ShortNanos);
    EXPECT_TRUE(X && Y);
    if (X && Y) {
      EXPECT_EQ(*X, 2);
      EXPECT_EQ(*Y, 3);
    }
    EXPECT_FALSE(Ch.recvFor(ShortNanos / 4).has_value());
    return AnyValue();
  });
}

//===----------------------------------------------------------------------===//
// Stream
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, StreamTimedHead) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    Stream<int> S;
    auto Pos = S.begin();
    EXPECT_EQ(S.hdFor(Pos, ShortNanos), nullptr); // (a)

    ThreadRef Producer = TC::forkThread([&]() -> AnyValue {
      spinForNanos(ShortNanos / 2);
      S.attach(11);
      S.attach(22);
      return AnyValue();
    });
    auto First = S.nextFor(Pos, LongNanos); // (b)
    EXPECT_TRUE(First.has_value());
    EXPECT_EQ(First.value_or(-1), 11);
    auto Second = S.nextFor(Pos, LongNanos);
    EXPECT_TRUE(Second.has_value());
    EXPECT_EQ(Second.value_or(-1), 22);
    EXPECT_FALSE(S.nextFor(Pos, ShortNanos / 4).has_value());
    TC::threadWait(*Producer);
    return AnyValue();
  });
}

//===----------------------------------------------------------------------===//
// Barriers
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, WaitForAllTimedOnStragglers) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    std::atomic<bool> Release{false};
    std::vector<ThreadRef> Group;
    for (int I = 0; I != 3; ++I)
      Group.push_back(TC::forkThread([&]() -> AnyValue {
        while (!Release.load(std::memory_order_acquire))
          TC::yieldProcessor();
        return AnyValue();
      }));
    EXPECT_EQ(waitForAllUntil(std::span<const ThreadRef>(Group),
                              Deadline::in(ShortNanos)),
              WaitResult::Timeout); // (a)
    Release.store(true, std::memory_order_release);
    EXPECT_EQ(waitForAllUntil(std::span<const ThreadRef>(Group),
                              Deadline::in(LongNanos)),
              WaitResult::Ready); // (b) + (c): records from the timed-out
                                  // round were fully retracted
    return AnyValue();
  });
}

TEST(TimedWaitTest, CyclicBarrierTimedArrivalRetracts) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    CyclicBarrier B(2);
    // Nobody else arrives: the arrival must time out and retract.
    EXPECT_FALSE(B.arriveAndWaitFor(ShortNanos).has_value()); // (a)
    EXPECT_EQ(B.phase(), 0u);

    // After retraction the barrier still needs exactly two arrivals.
    ThreadRef Peer = TC::forkThread([&]() -> AnyValue {
      return AnyValue(long(B.arriveAndWait()));
    });
    auto Phase = B.arriveAndWaitFor(LongNanos); // (b)
    EXPECT_TRUE(Phase.has_value());
    EXPECT_EQ(Phase.value_or(99), 0u);
    TC::threadWait(*Peer);
    EXPECT_EQ(B.phase(), 1u); // (c): one release, count back to zero
    return AnyValue();
  });
}

//===----------------------------------------------------------------------===//
// Speculative
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, WaitForOneTimedLeavesLosersRunning) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    std::atomic<bool> Release{false};
    std::vector<ThreadRef> Group;
    for (int I = 0; I != 2; ++I)
      Group.push_back(TC::forkThread([&, I]() -> AnyValue {
        while (!Release.load(std::memory_order_acquire))
          TC::yieldProcessor();
        return AnyValue(long(I));
      }));
    ThreadRef None = waitForOneUntil(std::span<const ThreadRef>(Group),
                                     Deadline::in(ShortNanos));
    EXPECT_FALSE(None); // (a); and nobody was terminated
    EXPECT_FALSE(Group[0]->isDetermined());
    EXPECT_FALSE(Group[1]->isDetermined());

    Release.store(true, std::memory_order_release);
    ThreadRef Winner = waitForOneUntil(std::span<const ThreadRef>(Group),
                                       Deadline::in(LongNanos));
    EXPECT_TRUE(Winner); // (b)
    if (Winner) {
      EXPECT_TRUE(Winner->isDetermined());
    }
    for (auto &T : Group)
      TC::threadWait(*T); // losers were terminated; both determine
    return AnyValue();
  });
}

//===----------------------------------------------------------------------===//
// Tuple spaces (the paper's get/rd, now with deadlines)
//===----------------------------------------------------------------------===//

TEST(TimedWaitTest, TupleSpaceTimedTakeHashed) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    EXPECT_FALSE(Ts->takeFor(makeTuple("job", formal(0)), ShortNanos)
                     .has_value()); // (a)

    ThreadRef Producer = TC::forkThread([&]() -> AnyValue {
      spinForNanos(ShortNanos / 2);
      Ts->put(makeTuple("job", 9));
      return AnyValue();
    });
    auto M = Ts->takeFor(makeTuple("job", formal(0)), LongNanos); // (b)
    EXPECT_TRUE(M.has_value());
    if (M) {
      EXPECT_EQ(M->binding(0).asFixnum(), 9);
    }
    TC::threadWait(*Producer);
    EXPECT_EQ(Ts->size(), 0u); // (c): taken, no residue either side
    return AnyValue();
  });
}

TEST(TimedWaitTest, SatisfiedTakeDropsItsTimer) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([&Vm]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    ThreadRef Producer = TC::forkThread([&]() -> AnyValue {
      // Put only once the take has parked and armed its timer.
      while (Vm.clock().pendingTimers() == 0)
        TC::yieldProcessor();
      Ts->put(makeTuple("job", 9));
      return AnyValue();
    });
    auto M = Ts->takeUntil(makeTuple("job", formal(0)),
                           Deadline::in(2'000'000'000));
    EXPECT_TRUE(M.has_value());
    // Woken ~2 s early: the timer must leave with the wait, not linger in
    // the clock until its deadline.
    EXPECT_EQ(Vm.clock().pendingTimers(), 0u);
    TC::threadWait(*Producer);
    return AnyValue();
  });
}

TEST(TimedWaitTest, TupleSpaceTimedReadSpecialized) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Q = TupleSpace::create(TupleSpaceRep::Queue);
    EXPECT_FALSE(
        Q->takeFor(makeTuple(formal(0)), ShortNanos).has_value());
    Q->put(makeTuple(5));
    auto M = Q->takeFor(makeTuple(formal(0)), ShortNanos);
    EXPECT_TRUE(M.has_value());
    if (M) {
      EXPECT_EQ(M->binding(0).asFixnum(), 5);
    }
    return AnyValue();
  });
}

} // namespace
