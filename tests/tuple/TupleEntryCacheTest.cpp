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
#include "gtest/gtest.h"

#include <atomic>
#include <optional>
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
  constexpr std::uint64_t SliceNanos = 50'000'000; // 50 ms
  VirtualMachine Vm(VmConfig{.NumVps = NumVps, .NumPps = NumVps});
  TupleSpaceRef Ts = TupleSpace::create();
  std::atomic<long> InFlight{0};
  std::atomic<long> PeakInFlight{0};
  std::atomic<long> Taken{0};
  std::atomic<long> Sum{0};
  Vm.run([&]() -> AnyValue {
    std::vector<ThreadRef> Threads;
    for (int C = 0; C != Consumers; ++C) {
      SpawnOptions Opts;
      Opts.Vp = &Vm.vp(1 + C);
      Threads.push_back(TC::forkThread(
          [&]() -> AnyValue {
            for (;;) {
              // Timed slices, retried: an untimed take can still miss its
              // wakeup (a known open bug), which would hang the flow.
              std::optional<Match> M;
              while (!(M = Ts->takeFor(makeTuple("job", formal(0)),
                                       SliceNanos)))
                ;
              const long V = M->binding(0).asFixnum();
              M.reset();
              InFlight.fetch_sub(1, std::memory_order_acq_rel);
              if (V < 0)
                return AnyValue();
              Taken.fetch_add(1, std::memory_order_relaxed);
              Sum.fetch_add(V, std::memory_order_relaxed);
            }
          },
          Opts));
    }
    SpawnOptions Opts;
    Opts.Vp = &Vm.vp(0);
    Threads.push_back(TC::forkThread(
        [&]() -> AnyValue {
          auto PutOne = [&](long V) {
            while (InFlight.load(std::memory_order_acquire) >= Window)
              TC::yieldProcessor();
            long Now = InFlight.fetch_add(1, std::memory_order_acq_rel) + 1;
            long Peak = PeakInFlight.load(std::memory_order_relaxed);
            while (Now > Peak &&
                   !PeakInFlight.compare_exchange_weak(Peak, Now))
              ;
            Ts->put(makeTuple("job", V));
          };
          for (long I = 0; I != Tuples; ++I)
            PutOne(I);
          for (int C = 0; C != Consumers; ++C)
            PutOne(-1); // one stop tuple per consumer
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
