//===- tests/core/ThreadStorageTest.cpp - Per-VP thread storage -------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// Thread storage comes from a per-VP cache (Thread::operator new/delete),
// so a future forked, stolen and dropped on one VP costs no allocator
// call (counted by the interposer in AllocCounter.cpp). In ASan builds a
// cached block is poisoned, so a use of a freed thread is still reported.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "arch/Context.h"
#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "gtest/gtest.h"

#include <cstdint>

namespace {

using namespace sting;
using TC = ThreadController;

/// One round: fork a stealable future with an inline thunk and result,
/// touch it (a steal out of the ready queue), drop it, and yield so the
/// scheduler drops the queue's stale entry and with it the last reference.
void forkTouchDrop(int I) {
  ThreadRef T = TC::forkThread([I]() -> AnyValue { return AnyValue(I); });
  EXPECT_EQ(TC::threadValue(*T).as<int>(), I);
  T.reset();
  TC::yieldProcessor();
}

TEST(ThreadStorageTest, WarmForkAndTouchAllocatesNoThreadStorage) {
  constexpr int Rounds = 10000;
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  std::uint64_t Steals0 = 0;
  AnyValue N = Vm.run([&]() -> AnyValue {
    for (int I = 0; I != 100; ++I) // warm the caches
      forkTouchDrop(I);
    Steals0 = currentVp()->stats().StealsSucceeded;
    return AnyValue(testutil::allocsDuring([] {
      for (int I = 0; I != Rounds; ++I)
        forkTouchDrop(I);
    }));
  });
  EXPECT_EQ(N.as<std::uint64_t>(), 0u)
      << "a round's one allocation was its Thread block";
  EXPECT_EQ(Vm.vp(0).stats().StealsSucceeded - Steals0,
            static_cast<std::uint64_t>(Rounds));
}

TEST(ThreadStorageDeathTest, TouchingACachedThreadIsReported) {
#if !STING_ASAN_CONTEXT
  GTEST_SKIP() << "poisoning of cached thread storage needs an ASan build";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
        Vm.run([]() -> AnyValue {
          Thread *Dropped;
          {
            ThreadRef T =
                TC::createThread([]() -> AnyValue { return AnyValue(1); });
            TC::threadWait(*T);
            Dropped = T.get();
          } // the last reference: the block waits in this VP's cache
          volatile std::uint64_t Id = Dropped->id();
          (void)Id;
          return AnyValue();
        });
      },
      "AddressSanitizer");
#endif
}

} // namespace
