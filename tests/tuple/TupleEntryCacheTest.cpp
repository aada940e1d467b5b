//===- tests/tuple/TupleEntryCacheTest.cpp - Per-VP entry caches -------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The hashed representation recycles entries through one small cache per
// VP (DESIGN.md 12.3). In a one-way flow — puts on one VP, takes on the
// others — every entry is made on the producer's VP and recycled on a
// consumer's, so without a cap the consumers' caches would hoard every
// entry and the producer would allocate a fresh one for each put. The
// cap spills the surplus back to the shared list, which bounds the pool
// by peak residency plus one full cache per VP.
//
//===----------------------------------------------------------------------===//

#include "tuple/TupleSpace.h"

#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/Watchdog.h"
#include "sync/Semaphore.h"
#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

TEST(TupleEntryCacheTest, CapIsPinned) {
  // The pool bound below, and DESIGN.md 12.3, are stated in this cap.
  EXPECT_EQ(TupleEntryCacheCap, 64u);
}

TEST(TupleEntryCacheTest, OneWayFlowKeepsThePoolBounded) {
  constexpr unsigned NumVps = 4;
  constexpr int Consumers = NumVps - 1;
  constexpr long Tuples = 100'000;
  /// Most tuples in flight: put but not yet taken and dropped.
  constexpr long Window = 64;
  // The takes are untimed, so a lost wakeup would wedge the flow. The
  // producer blocks on the window rather than spinning, so a wedge leaves
  // every VP idle, and the stall watchdog turns it into a prompt failure
  // instead of a hang.
  VmConfig Config{.NumVps = NumVps, .NumPps = NumVps};
  Config.StallBudgetNanos = 2'000'000'000; // 2 s
  VirtualMachine Vm(Config);
  Vm.watchdog()->setReportHook([](const std::string &Report) {
    // The watchdog has already printed the report on stderr.
    if (Report.find("machine-blocked") != std::string::npos)
      std::abort();
  });
  TupleSpaceRef Ts = TupleSpace::create();
  Semaphore Slots(Window);
  std::atomic<long> InFlight{0};
  std::atomic<long> PeakInFlight{0};
  std::atomic<long> Claimed{0};
  std::atomic<long> Taken{0};
  std::atomic<long> Sum{0};
  Vm.run([&]() -> AnyValue {
    std::vector<ThreadRef> Threads;
    for (int C = 0; C != Consumers; ++C) {
      SpawnOptions Opts;
      Opts.Vp = &Vm.vp(1 + C);
      Threads.push_back(TC::forkThread(
          [&]() -> AnyValue {
            // Stop on a count, not on stop tuples: Linda promises no
            // order, so a stop tuple may overtake real ones.
            while (Claimed.fetch_add(1, std::memory_order_relaxed) < Tuples) {
              const long V =
                  Ts->take(makeTuple("job", formal(0))).binding(0).asFixnum();
              InFlight.fetch_sub(1, std::memory_order_acq_rel);
              Slots.release();
              Taken.fetch_add(1, std::memory_order_relaxed);
              Sum.fetch_add(V, std::memory_order_relaxed);
            }
            return AnyValue();
          },
          Opts));
    }
    SpawnOptions Opts;
    Opts.Vp = &Vm.vp(0);
    Threads.push_back(TC::forkThread(
        [&]() -> AnyValue {
          for (long I = 0; I != Tuples; ++I) {
            Slots.acquire();
            long Now = InFlight.fetch_add(1, std::memory_order_acq_rel) + 1;
            long Peak = PeakInFlight.load(std::memory_order_relaxed);
            while (Now > Peak &&
                   !PeakInFlight.compare_exchange_weak(Peak, Now))
              ;
            Ts->put(makeTuple("job", I));
          }
          return AnyValue();
        },
        Opts));
    for (auto &T : Threads)
      TC::threadWait(*T);
    return AnyValue();
  });

  EXPECT_EQ(Taken.load(), Tuples);
  EXPECT_EQ(Sum.load(), Tuples * (Tuples - 1) / 2);
  EXPECT_EQ(Ts->size(), 0u);
  const std::uint64_t Pooled =
      Ts->stats().PooledEntries.load(std::memory_order_relaxed);
  const std::uint64_t Bound =
      static_cast<std::uint64_t>(PeakInFlight.load()) +
      NumVps * TupleEntryCacheCap;
  EXPECT_GT(Pooled, 0u);
  EXPECT_LE(Pooled, Bound) << "peak in flight " << PeakInFlight.load();
}

} // namespace
