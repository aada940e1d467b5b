//===- tests/core/WatchdogTest.cpp - Stall watchdog over a live VM -----------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// End-to-end watchdog wiring (DESIGN.md section 7.3): a VM configured with
// a stall budget must flag an intentionally deadlocked thread pair within
// that budget, stay silent on healthy and quiescent machines, and treat a
// pending timed wait as wakeable (not deadlocked). Verdict-transition
// logic itself is pinned down in StallDetectorTest.
//
//===----------------------------------------------------------------------===//

#include "core/Watchdog.h"

#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "support/Clock.h"
#include "sync/Mutex.h"
#include "tuple/TupleSpace.h"
#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace {

using namespace sting;
using TC = ThreadController;

// Sanitizer builds slow the machine enough that a healthy VP can look
// stalled inside a tight budget; give them a much wider one (the tests
// only need budget << the 300 ms timed wait / 10 s detection limits).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define STING_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define STING_TEST_SANITIZED 1
#endif
#endif
#ifdef STING_TEST_SANITIZED
constexpr std::uint64_t BudgetNanos = 160'000'000; // 160 ms
constexpr std::uint64_t PollNanos = 8'000'000;     // 8 ms
#else
constexpr std::uint64_t BudgetNanos = 20'000'000; // 20 ms
constexpr std::uint64_t PollNanos = 2'000'000;    // 2 ms
#endif

VmConfig watchedConfig() {
  VmConfig C;
  C.NumVps = 2;
  C.NumPps = 2;
  C.StallBudgetNanos = BudgetNanos;
  C.StallPollNanos = PollNanos;
  return C;
}

/// Waits (wall clock) until \p Done returns true, up to \p LimitNanos.
template <typename Fn> bool eventually(Fn Done, std::uint64_t LimitNanos) {
  StopWatch Timer;
  while (!Done()) {
    if (Timer.elapsedNanos() > LimitNanos)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(WatchdogTest, FlagsAbBaDeadlockWithinBudget) {
  VirtualMachine Vm(watchedConfig());
  ASSERT_NE(Vm.watchdog(), nullptr);

  Mutex M1, M2;
  std::atomic<bool> AHolds{false}, BHolds{false};
  // Classic AB-BA: each thread takes its first mutex, waits until the
  // other holds too, then blocks forever on the second.
  ThreadRef A = Vm.fork([&]() -> AnyValue {
    try {
      withMutex(M1, [&] {
        AHolds.store(true, std::memory_order_release);
        while (!BHolds.load(std::memory_order_acquire))
          TC::yieldProcessor();
        withMutex(M2, [] {});
      });
      return AnyValue(std::string("no deadlock"));
    } catch (const std::runtime_error &) {
      return AnyValue(std::string("cancelled"));
    }
  });
  ThreadRef B = Vm.fork([&]() -> AnyValue {
    try {
      withMutex(M2, [&] {
        BHolds.store(true, std::memory_order_release);
        while (!AHolds.load(std::memory_order_acquire))
          TC::yieldProcessor();
        withMutex(M1, [] {});
      });
      return AnyValue(std::string("no deadlock"));
    } catch (const std::runtime_error &) {
      return AnyValue(std::string("cancelled"));
    }
  });

  // The watchdog must notice within the budget plus a few poll periods;
  // allow generous wall-clock slack for loaded CI machines.
  EXPECT_TRUE(eventually(
      [&] { return Vm.watchdog()->reportsEmitted() > 0; }, 10'000'000'000))
      << "watchdog never flagged the deadlock";

  std::string Report = Vm.watchdog()->lastReport();
  EXPECT_NE(Report.find("machine-blocked"), std::string::npos) << Report;
  EXPECT_NE(Report.find("live threads: 2"), std::string::npos) << Report;
  EXPECT_NE(Report.find("[STALLED]"), std::string::npos) << Report;

  // Async cancellation doubles as the cleanup path: both withMutex guards
  // release on the unwind and the machine drains normally.
  TC::raiseIn(*A, std::make_exception_ptr(std::runtime_error("unwedge")));
  TC::raiseIn(*B, std::make_exception_ptr(std::runtime_error("unwedge")));
  A->join();
  B->join();
  EXPECT_EQ(A->valueAs<std::string>(), "cancelled");
  EXPECT_EQ(B->valueAs<std::string>(), "cancelled");
  EXPECT_FALSE(M1.isLocked());
  EXPECT_FALSE(M2.isLocked());
}

TEST(WatchdogTest, ReportHookFires) {
  VirtualMachine Vm(watchedConfig());
  std::atomic<int> HookCalls{0};
  Vm.watchdog()->setReportHook(
      [&](const std::string &) { HookCalls.fetch_add(1); });
  Vm.watchdog()->addDiagnostic("test-marker", [] {
    return std::string("diagnostic-payload");
  });

  Mutex M;
  // From the external test thread: plain tryAcquire (acquire may park,
  // which needs a sting thread).
  ASSERT_TRUE(M.tryAcquire());
  ThreadRef T = Vm.fork([&]() -> AnyValue {
    try {
      M.acquire();
      return AnyValue(std::string("acquired"));
    } catch (const std::runtime_error &) {
      return AnyValue(std::string("cancelled"));
    }
  });
  EXPECT_TRUE(
      eventually([&] { return HookCalls.load() > 0; }, 10'000'000'000));
  EXPECT_NE(Vm.watchdog()->lastReport().find("diagnostic-payload"),
            std::string::npos);
  TC::raiseIn(*T, std::make_exception_ptr(std::runtime_error("unwedge")));
  T->join();
  M.release();
}

TEST(WatchdogTest, HealthyMachineEmitsNoReports) {
  VirtualMachine Vm(watchedConfig());
  std::atomic<bool> Stop{false};
  // Two yielding workers keep both VPs progressing for several budgets.
  ThreadRef W1 = Vm.fork([&]() -> AnyValue {
    while (!Stop.load(std::memory_order_acquire))
      TC::yieldProcessor();
    return AnyValue();
  });
  ThreadRef W2 = Vm.fork([&]() -> AnyValue {
    while (!Stop.load(std::memory_order_acquire))
      TC::yieldProcessor();
    return AnyValue();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Stop.store(true, std::memory_order_release);
  W1->join();
  W2->join();
  // Fully quiescent (zero live threads) for several budgets more.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(Vm.watchdog()->reportsEmitted(), 0u);
}

TEST(WatchdogTest, PendingTimedWaitIsNotADeadlock) {
  VirtualMachine Vm(watchedConfig());
  Mutex M;
  ASSERT_TRUE(M.tryAcquire());
  // The thread blocks far beyond the stall budget, but on a *timed*
  // acquire: its timer keeps the machine wakeable, so no machine-blocked
  // report may fire while it waits.
  ThreadRef T = Vm.fork([&]() -> AnyValue {
    return AnyValue(M.tryAcquireFor(300'000'000)); // 300 ms
  });
  T->join();
  EXPECT_FALSE(T->valueAs<bool>());
  // A vp-stalled report can fire spuriously here when the OS deschedules
  // the PP thread past the 20ms budget on an oversubscribed CI runner;
  // the property under test is only that the pending timer keeps the
  // blocked machine from being declared a deadlock.
  EXPECT_EQ(Vm.watchdog()->lastReport().find("machine-blocked"),
            std::string::npos);
  M.release();
}

TEST(WatchdogTest, FlagsWedgeRightAfterSatisfiedTimedWait) {
  VirtualMachine Vm(watchedConfig());
  TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Hashed,
                                        &Vm.globalHeap());
  // A 2 s timed take, satisfied at once; then an untimed take nothing
  // will ever satisfy. The satisfied wait must not leave a timer that
  // keeps the wedged machine looking wakeable until its deadline.
  ThreadRef T = Vm.fork([&]() -> AnyValue {
    bool Got = Ts->takeUntil(makeTuple("go"), Deadline::in(2'000'000'000))
                   .has_value();
    Ts->take(makeTuple("never"));
    return AnyValue(Got);
  });
  ASSERT_TRUE(eventually([&] { return Vm.clock().pendingTimers() != 0; },
                         10'000'000'000));
  Ts->put(makeTuple("go"));

  EXPECT_TRUE(eventually(
      [&] { return Vm.watchdog()->reportsEmitted() > 0; }, 1'000'000'000))
      << "watchdog did not flag the wedge before the stale deadline";
  EXPECT_NE(Vm.watchdog()->lastReport().find("machine-blocked"),
            std::string::npos)
      << Vm.watchdog()->lastReport();

  Ts->put(makeTuple("never")); // unwedge
  T->join();
  EXPECT_TRUE(T->valueAs<bool>());
}

TEST(WatchdogTest, DisabledByDefault) {
  VirtualMachine Vm;
  EXPECT_EQ(Vm.watchdog(), nullptr);
}

} // namespace
