//===- tests/core/PlacementTest.cpp - Where the default policy puts threads ===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The local FIFO policy's placement (DESIGN.md sections 2 and 8.5): a
// stealable fork stays on its forker's VP, so a fork that its forker
// touches never crosses to another VP; non-stealable forks are still
// spread round-robin; and an idle sibling does take a fresh thread that
// its forker leaves alone (the second-sight rule of section 5).
//
//===----------------------------------------------------------------------===//

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "support/Clock.h"
#include "gtest/gtest.h"

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

/// Waits (bounded) until no VP of \p Vm holds queued or posted work, so
/// every stale entry has been dropped where it was queued.
void waitUntilQueuesEmpty(VirtualMachine &Vm) {
  const std::uint64_t Deadline = nowNanos() + 10'000'000'000ull;
  for (;;) {
    bool Busy = false;
    for (const auto &Vp : Vm.vps())
      Busy |= Vp->hasReadyWork();
    if (!Busy || nowNanos() > Deadline)
      return;
    std::this_thread::yield();
  }
}

// One PP, so no sibling VP runs while the forker does: every queue entry a
// round ends with is dropped by the VP it was queued on.
TEST(PlacementTest, TouchedForksNeverLeaveTheForkersVp) {
  constexpr int Rounds = 1000;
  VirtualMachine Vm(VmConfig{.NumVps = 4, .NumPps = 1});
  std::uint64_t Posts = ~0ull;
  unsigned Home = ~0u;
  AnyValue V = Vm.run([&]() -> AnyValue {
    Home = currentVp()->index();
    const std::uint64_t Before = Vm.aggregateStats().MailboxPosts;
    int Sum = 0;
    for (int I = 0; I != Rounds; ++I) {
      ThreadRef T = TC::forkThread([I]() -> AnyValue { return AnyValue(I); });
      Sum += TC::threadValue(*T).as<int>();
    }
    Posts = Vm.aggregateStats().MailboxPosts - Before;
    return AnyValue(Sum);
  });
  EXPECT_EQ(V.as<int>(), Rounds * (Rounds - 1) / 2);
  waitUntilQueuesEmpty(Vm);
  EXPECT_EQ(Posts, 0u) << "a stealable fork was placed on another VP";
  std::vector<obs::SchedStatsSnapshot> PerVp = Vm.perVpStats();
  for (unsigned I = 0; I != PerVp.size(); ++I) {
    if (I == Home)
      continue;
    EXPECT_EQ(PerVp[I].SkippedStale, 0u) << "VP " << I;
  }
}

TEST(PlacementTest, NonStealableForksStillSpreadRoundRobin) {
  constexpr unsigned NumVps = 4;
  VirtualMachine Vm(VmConfig{.NumVps = NumVps, .NumPps = 1});
  AnyValue V = Vm.run([]() -> AnyValue {
    SpawnOptions Opts;
    Opts.Stealable = false;
    std::vector<ThreadRef> Kids;
    for (unsigned I = 0; I != NumVps; ++I)
      Kids.push_back(TC::forkThread(
          []() -> AnyValue { return AnyValue(currentVp()->index()); },
          Opts));
    std::set<unsigned> Vps;
    for (ThreadRef &T : Kids)
      Vps.insert(TC::threadValue(*T).as<unsigned>());
    return AnyValue(Vps.size());
  });
  EXPECT_EQ(V.as<std::size_t>(), NumVps);
}

// The forker never makes a controller call while it waits, so its own VP
// never dispatches: the child can only start because an idle VP on the
// other PP took it. The wait is bounded; on timeout the forker touches the
// child itself and the test fails instead of hanging.
TEST(PlacementTest, IdleSiblingStartsAnUntouchedFuture) {
  VirtualMachine Vm(VmConfig{.NumVps = 4, .NumPps = 2});
  std::atomic<int> ChildVp{-1};
  int ForkerVp = -1;
  Vm.run([&]() -> AnyValue {
    ForkerVp = static_cast<int>(currentVp()->index());
    ThreadRef T = TC::forkThread([&]() -> AnyValue {
      ChildVp.store(static_cast<int>(currentVp()->index()),
                    std::memory_order_release);
      return AnyValue();
    });
    const std::uint64_t Deadline = nowNanos() + 10'000'000'000ull;
    while (ChildVp.load(std::memory_order_acquire) < 0 &&
           nowNanos() < Deadline)
      std::this_thread::yield(); // an OS yield, not a controller call
    TC::threadValue(*T);
    return AnyValue();
  });
  ASSERT_GE(ChildVp.load(), 0);
  EXPECT_NE(ChildVp.load(), ForkerVp)
      << "the child only ran when its forker touched it";
  EXPECT_GE(Vm.aggregateStats().DequeSteals, 1u);
}

} // namespace
