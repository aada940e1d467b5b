//===- tests/tuple/TupleStatsTest.cpp - Per-VP operation counters ------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// A space keeps its operation counters in one slot per VP and sums the
// slots on every read (DESIGN.md 12.3). Whoever charges — a thread on any
// VP, a caller outside every machine, or VPs of two machines that share a
// slot — the sums must come out exact once the operations are done.
//
//===----------------------------------------------------------------------===//

#include "tuple/TupleSpace.h"

#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

constexpr unsigned NumVps = 4;
constexpr std::int64_t N = 2000;

/// N puts, N reads and N takes of \p Key's own tuples; the takes find
/// their tuple without waiting.
void putReadTake(TupleSpace &Ts, std::int64_t Key) {
  for (std::int64_t I = 0; I != N; ++I) {
    Ts.put(makeTuple(Key, I));
    EXPECT_EQ(Ts.read(makeTuple(Key, formal(0))).binding(0).asFixnum(), I);
    EXPECT_EQ(Ts.take(makeTuple(Key, formal(0))).binding(0).asFixnum(), I);
  }
}

/// Waits (outside the machine) until \p Ts has seen \p Want blocked
/// episodes; false after 10 s.
bool awaitBlocksOutside(const TupleSpace &Ts, std::uint64_t Want) {
  const auto Limit = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Ts.stats().Blocks.load(std::memory_order_acquire) < Want) {
    if (std::chrono::steady_clock::now() > Limit)
      return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(TupleStatsTest, CountsFromEveryVpAndOutsideSumExactly) {
  VirtualMachine Vm(VmConfig{.NumVps = NumVps, .NumPps = NumVps});
  TupleSpaceRef Ts = TupleSpace::create();
  std::atomic<bool> Go{false};
  std::vector<ThreadRef> Threads;
  for (unsigned I = 0; I != NumVps; ++I) {
    SpawnOptions Opts;
    Opts.Vp = &Vm.vp(I);
    Threads.push_back(Vm.fork(
        [&, I]() -> AnyValue {
          while (!Go.load(std::memory_order_acquire))
            TC::yieldProcessor();
          putReadTake(*Ts, I);
          // One take that has to wait: its tuple comes from outside once
          // every VP's waiter is counted.
          Match M = Ts->take(makeTuple(std::int64_t{100 + I}, formal(0)));
          EXPECT_EQ(M.binding(0).asFixnum(), std::int64_t{I});
          return AnyValue();
        },
        Opts));
  }
  Go.store(true, std::memory_order_release);

  // The same load from outside the machine, charged to the off-VP slot;
  // its takes are try variants, which count as attempts too.
  for (std::int64_t I = 0; I != N; ++I) {
    Ts->put(makeTuple(std::int64_t{-1}, I));
    ASSERT_TRUE(Ts->tryRead(makeTuple(std::int64_t{-1}, formal(0))));
    ASSERT_TRUE(Ts->tryTake(makeTuple(std::int64_t{-1}, formal(0))));
  }

  ASSERT_TRUE(awaitBlocksOutside(*Ts, NumVps));
  for (unsigned I = 0; I != NumVps; ++I)
    Ts->put(makeTuple(std::int64_t{100 + I}, std::int64_t{I}));
  for (const ThreadRef &T : Threads)
    T->join();

  const TupleSpaceStats S = Ts->stats();
  const std::uint64_t Ops = (NumVps + 1) * N;
  EXPECT_EQ(S.Puts.load(), Ops + NumVps);
  EXPECT_EQ(S.Reads.load(), Ops);
  EXPECT_EQ(S.Takes.load(), Ops + NumVps);
  // Each waiting take blocked once and was handed its tuple directly.
  EXPECT_EQ(S.Blocks.load(), NumVps);
  EXPECT_EQ(S.Handoffs.load(), NumVps);
  EXPECT_EQ(S.Wakeups.load(), NumVps);
  EXPECT_EQ(S.Spawns.load(), 0u);
  EXPECT_GT(S.PooledEntries.load(), 0u);
  EXPECT_EQ(Ts->size(), 0u);
}

TEST(TupleStatsTest, VpsOfTwoMachinesSharingSlotsCountExactly) {
  // VP i of either machine charges slot i, so every slot has two writers.
  TupleSpaceRef Ts = TupleSpace::create();
  VirtualMachine A(VmConfig{.NumVps = NumVps, .NumPps = 2});
  VirtualMachine B(VmConfig{.NumVps = NumVps, .NumPps = 2});
  std::atomic<bool> Go{false};
  std::vector<ThreadRef> Threads;
  for (VirtualMachine *Vm : {&A, &B}) {
    for (unsigned I = 0; I != NumVps; ++I) {
      SpawnOptions Opts;
      Opts.Vp = &Vm->vp(I);
      const std::int64_t Key = (Vm == &A ? 0 : 10) + I;
      Threads.push_back(Vm->fork(
          [&, Key]() -> AnyValue {
            while (!Go.load(std::memory_order_acquire))
              TC::yieldProcessor();
            putReadTake(*Ts, Key);
            return AnyValue();
          },
          Opts));
    }
  }
  Go.store(true, std::memory_order_release);
  for (const ThreadRef &T : Threads)
    T->join();

  const TupleSpaceStats S = Ts->stats();
  const std::uint64_t Ops = 2 * NumVps * N;
  EXPECT_EQ(S.Puts.load(), Ops);
  EXPECT_EQ(S.Reads.load(), Ops);
  EXPECT_EQ(S.Takes.load(), Ops);
  EXPECT_EQ(S.Blocks.load(), 0u);
  EXPECT_EQ(Ts->size(), 0u);
}

} // namespace
