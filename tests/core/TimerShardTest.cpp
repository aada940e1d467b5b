//===- tests/core/TimerShardTest.cpp - Park timers across VPs ----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// Timed parks arm their timeout on the machine clock (DESIGN.md 7.1). Two
// properties must hold however the clock stores its timers:
//  (a) a timed park woken early removes its timer even when the thread
//      resumes on a different VP than the one it parked on, so a machine
//      at rest has no pending timers;
//  (b) arming a deadline earlier than the clock's planned wake cuts the
//      clock's sleep short, so a short timeout fires on time even when the
//      clock would otherwise sleep for a full (long) tick;
//  (c) a park timer holds no thread reference, yet a timer that comes due
//      while its waiter is woken, determined and dropped never touches a
//      freed thread (the clock retains it under the heap lock).
//
//===----------------------------------------------------------------------===//

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "support/Clock.h"
#include "sync/ParkList.h"
#include "tuple/TupleSpace.h"
#include "gtest/gtest.h"

#include <atomic>
#include <thread>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

constexpr std::uint64_t ShortNanos = 20'000;        // 20 us
constexpr std::uint64_t LongNanos = 10'000'000'000; // 10 s (never reached)

/// Rounds of timed ParkList waits on a 4-VP machine under steal-half, most
/// of them woken long before their deadline.
void wakeWaitersEarly() {
  VmConfig Config;
  Config.NumVps = 4;
  Config.NumPps = 4;
  Config.Policy = makeStealHalfPolicy();
  VirtualMachine Vm(Config);
  constexpr int Rounds = 20;
  constexpr int Waiters = 32;
  Vm.run([&]() -> AnyValue {
    for (int Round = 0; Round != Rounds; ++Round) {
      ParkList P;
      std::atomic<bool> Go{false};
      std::atomic<int> Ready{0}, TimedOut{0}, LongTimedOut{0};
      std::vector<ThreadRef> Threads;
      for (int I = 0; I != Waiters; ++I) {
        const bool Short = I % 4 == 0;
        SpawnOptions Opts;
        Opts.Vp = &Vm.vp(0);
        Threads.push_back(TC::forkThread(
            [&, Short]() -> AnyValue {
              WaitResult R = P.awaitUntil(
                  [&] { return Go.load(std::memory_order_acquire); }, &P,
                  Deadline::in(Short ? ShortNanos : LongNanos));
              if (R == WaitResult::Ready) {
                Ready.fetch_add(1, std::memory_order_relaxed);
              } else {
                TimedOut.fetch_add(1, std::memory_order_relaxed);
                if (!Short)
                  LongTimedOut.fetch_add(1, std::memory_order_relaxed);
              }
              return AnyValue();
            },
            Opts));
      }
      // Let the long waiters park (the short ones may already be gone).
      while (P.waiterCount() < Waiters - Waiters / 4)
        TC::yieldProcessor();
      Go.store(true, std::memory_order_release);
      P.wakeAll();
      for (auto &T : Threads)
        TC::threadWait(*T);
      EXPECT_EQ(Ready.load() + TimedOut.load(), Waiters);
      // The wake came 10 s before any long deadline.
      EXPECT_EQ(LongTimedOut.load(), 0);
      EXPECT_EQ(P.waiterCount(), 0u);
      EXPECT_EQ(Vm.clock().pendingTimers(), 0u);
    }
    return AnyValue();
  });
  EXPECT_EQ(Vm.clock().pendingTimers(), 0u);
}

/// Spins on the OS thread, keeping the caller's VP: a sting yield would let
/// the VP run something else.
template <typename Pred> void holdVpUntil(Pred Done) {
  while (!Done())
    std::this_thread::yield();
}

TEST(TimerShardTest, StealHalfWaitsWokenEarlyLeaveNoTimers) {
  // Steal-half keeps a woken TCB on its VP's private queue; the threads
  // still spread over the VPs by stealing before they first run, so the
  // timers are armed across several VPs.
  wakeWaitersEarly();
}

TEST(TimerShardTest, WaitWokenOnAnotherVpCancelsItsTimer) {
  // One shared queue, so any free VP may resume a woken TCB. Each round is
  // staged so that every long wait resumes on a VP other than the one it
  // armed on: while the waiters arm, the round thread and two holders keep
  // three VPs busy, so every waiter arms on the fourth; while they resume, a
  // holder keeps that fourth VP busy. Preemption is off, so a running
  // thread keeps its VP until it parks or returns.
  VmConfig Config;
  Config.NumVps = 4;
  Config.NumPps = 4;
  Config.EnablePreemption = false;
  Config.Policy = makeGlobalFifoPolicy();
  VirtualMachine Vm(Config);
  constexpr int Rounds = 20;
  constexpr int Waiters = 32;
  constexpr int LongWaiters = Waiters - Waiters / 4;
  Vm.run([&]() -> AnyValue {
    for (int Round = 0; Round != Rounds; ++Round) {
      ParkList P;
      std::atomic<bool> Go{false}, Release{false};
      std::atomic<int> Holding{0}, Finished{0}, LongMigrated{0},
          LongTimedOut{0};
      std::vector<ThreadRef> Threads;
      for (int I = 0; I != 2; ++I)
        Threads.push_back(TC::forkThread([&]() -> AnyValue {
          Holding.fetch_add(1, std::memory_order_acq_rel);
          holdVpUntil([&] { return Release.load(std::memory_order_acquire); });
          return AnyValue();
        }));
      holdVpUntil([&] { return Holding.load() == 2; });

      for (int I = 0; I != Waiters; ++I) {
        const bool Short = I % 4 == 0;
        Threads.push_back(TC::forkThread([&, Short]() -> AnyValue {
          VirtualProcessor *Armed = currentVp();
          WaitResult R = P.awaitUntil(
              [&] { return Go.load(std::memory_order_acquire); }, &P,
              Deadline::in(Short ? ShortNanos : LongNanos));
          if (!Short && currentVp() != Armed)
            LongMigrated.fetch_add(1, std::memory_order_relaxed);
          if (!Short && R != WaitResult::Ready)
            LongTimedOut.fetch_add(1, std::memory_order_relaxed);
          Finished.fetch_add(1, std::memory_order_acq_rel);
          return AnyValue();
        }));
      }
      holdVpUntil([&] { return P.waiterCount() >= LongWaiters; });

      // Occupy the VP the waiters armed on until every waiter is done.
      Threads.push_back(TC::forkThread([&]() -> AnyValue {
        Holding.fetch_add(1, std::memory_order_acq_rel);
        holdVpUntil([&] { return Finished.load() == Waiters; });
        return AnyValue();
      }));
      holdVpUntil([&] { return Holding.load() == 3; });

      Go.store(true, std::memory_order_release);
      P.wakeAll();
      Release.store(true, std::memory_order_release);
      for (auto &T : Threads)
        TC::threadWait(*T);

      // The wake came 10 s before any long deadline, and every long wait
      // resumed on another VP, which had to drop the timer it armed.
      EXPECT_EQ(LongTimedOut.load(), 0) << "round " << Round;
      EXPECT_EQ(LongMigrated.load(), LongWaiters) << "round " << Round;
      EXPECT_EQ(P.waiterCount(), 0u);
      EXPECT_EQ(Vm.clock().pendingTimers(), 0u) << "round " << Round;
    }
    return AnyValue();
  });
  EXPECT_EQ(Vm.clock().pendingTimers(), 0u);
}

TEST(TimerShardTest, WaiterDroppedWhileItsTimeoutIsDueStaysSafe) {
  // Each round parks one waiter with a short deadline and wakes it at an
  // offset swept from 0 to about four deadlines (the clock fires a due
  // timer tens of microseconds late), so the clock fires the timer
  // before, during and after the waiter's wake, exit and final release.
  // Freed-thread accesses are what ASan would report: a clock that reads
  // the owner's thread after dropping the heap lock fails every run.
  VmConfig Config;
  Config.NumVps = 2;
  Config.NumPps = 2;
  VirtualMachine Vm(Config);
  constexpr int Rounds = 1000;
  constexpr std::uint64_t TimeoutNanos = 30'000; // 30 us
  int Woken = 0, TimedOut = 0;
  Vm.run([&]() -> AnyValue {
    for (int Round = 0; Round != Rounds; ++Round) {
      ParkList P;
      std::atomic<bool> Go{false};
      SpawnOptions Opts;
      Opts.Vp = &Vm.vp(1);
      ThreadRef T = TC::forkThread(
          [&]() -> AnyValue {
            return AnyValue(P.awaitUntil(
                [&] { return Go.load(std::memory_order_acquire); }, &P,
                Deadline::in(TimeoutNanos)));
          },
          Opts);
      const std::uint64_t WakeAt =
          nowNanos() + (Round % 40) * TimeoutNanos / 10;
      holdVpUntil([&] { return nowNanos() >= WakeAt; });
      Go.store(true, std::memory_order_release);
      P.wakeAll();
      TC::threadWait(*T);
      if (T->result().as<WaitResult>() == WaitResult::Ready)
        ++Woken;
      else
        ++TimedOut;
      T.reset(); // usually the last reference; the timer may be due now
    }
    return AnyValue();
  });
  EXPECT_EQ(Woken + TimedOut, Rounds);
  EXPECT_EQ(Vm.clock().pendingTimers(), 0u);
}

TEST(TimerShardTest, EarlierDeadlineCutsTheClockSleepShort) {
  // Preemption off and a one-second tick: the clock sleeps a full second
  // unless an arm with an earlier deadline wakes it.
  VmConfig Config;
  Config.NumVps = 2;
  Config.NumPps = 2;
  Config.EnablePreemption = false;
  Config.PreemptTickNanos = 1'000'000'000;
  VirtualMachine Vm(Config);
  constexpr int Rounds = 50;
  constexpr std::uint64_t TimeoutNanos = 5'000'000; // 5 ms
  constexpr std::uint64_t LimitNanos = 100'000'000; // 100 ms
  Vm.run([&]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    for (int Round = 0; Round != Rounds; ++Round) {
      // Alternate VPs so deadlines arm on each VP's timers in turn.
      SpawnOptions Opts;
      Opts.Vp = &Vm.vp(static_cast<unsigned>(Round) % Vm.numVps());
      ThreadRef T = TC::forkThread(
          [&]() -> AnyValue {
            const std::uint64_t Start = nowNanos();
            auto M = Ts->takeUntil(makeTuple("never", formal(0)),
                                   Deadline::in(TimeoutNanos));
            const std::uint64_t Elapsed = nowNanos() - Start;
            EXPECT_FALSE(M.has_value());
            EXPECT_GE(Elapsed, TimeoutNanos);
            EXPECT_LT(Elapsed, LimitNanos) << "round " << Round;
            return AnyValue();
          },
          Opts);
      TC::threadWait(*T);
    }
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue();
  });
  EXPECT_EQ(Vm.clock().pendingTimers(), 0u);
}

} // namespace
