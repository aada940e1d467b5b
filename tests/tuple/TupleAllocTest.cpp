//===- tests/tuple/TupleAllocTest.cpp - A take allocates nothing -------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// A Match holds up to eight field values and eight bindings in place
// (tuple/Tuple.h), and the representations write straight into it, so a
// read or take of a tuple of eight fields or fewer makes no heap
// allocation on the matching thread — present tuple or parked taker
// served by a put. This file replaces the global operator new with one
// that counts the calls made while the measured sting thread is the
// current thread.
//
//===----------------------------------------------------------------------===//

#include "tuple/TupleSpace.h"

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

/// The sting thread whose allocations are counted; null counts nothing.
std::atomic<const sting::Thread *> Counted{nullptr};
std::atomic<std::uint64_t> Allocs{0};

void *countedAlloc(std::size_t N, std::size_t Align) {
  if (const sting::Thread *T = Counted.load(std::memory_order_relaxed);
      T && sting::currentThread() == T)
    Allocs.fetch_add(1, std::memory_order_relaxed);
  if (N == 0)
    N = 1;
  if (Align <= alignof(std::max_align_t))
    return std::malloc(N);
  return std::aligned_alloc(Align, (N + Align - 1) / Align * Align);
}

void *countedAllocOrThrow(std::size_t N, std::size_t Align) {
  if (void *P = countedAlloc(N, Align))
    return P;
  throw std::bad_alloc();
}

} // namespace

// Every replaceable form, so each allocation and its release go through
// one malloc/free pair whatever the sanitizer runtime defines. Once these
// inline into a caller, GCC sees free() meet a pointer from operator new,
// which is exactly the pairing intended here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *operator new(std::size_t N) { return countedAllocOrThrow(N, 0); }
void *operator new[](std::size_t N) { return countedAllocOrThrow(N, 0); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N, 0);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N, 0);
}
void *operator new(std::size_t N, std::align_val_t A) {
  return countedAllocOrThrow(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return countedAllocOrThrow(N, static_cast<std::size_t>(A));
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

using namespace sting;
using TC = ThreadController;

/// \returns the operator new calls \p Fn makes on the current sting thread.
template <typename Fn> std::uint64_t allocsDuring(Fn &&F) {
  Counted.store(currentThread(), std::memory_order_relaxed);
  const std::uint64_t Before = Allocs.load(std::memory_order_relaxed);
  F();
  const std::uint64_t N = Allocs.load(std::memory_order_relaxed) - Before;
  Counted.store(nullptr, std::memory_order_relaxed);
  return N;
}

/// A tuple of the representation's shape: the 7-field task tuple in the
/// general form, the one shape each specialized form stores otherwise.
Tuple tupleFor(TupleSpaceRep Rep, int K) {
  switch (Rep) {
  case TupleSpaceRep::Hashed:
    return makeTuple("job", K, K + 1, K + 2, K + 3, K + 4, K + 5);
  case TupleSpaceRep::Vector:
    return makeTuple(0, K);
  default:
    return makeTuple(K);
  }
}

Tuple templateFor(TupleSpaceRep Rep) {
  switch (Rep) {
  case TupleSpaceRep::Hashed:
    return makeTuple("job", formal(0), formal(1), formal(2), formal(3),
                     formal(4), formal(5));
  case TupleSpaceRep::Vector:
    return makeTuple(0, formal(0));
  default:
    return makeTuple(formal(0));
  }
}

class TupleAllocTest : public ::testing::TestWithParam<TupleSpaceRep> {};

TEST_P(TupleAllocTest, MatchingAPresentTupleAllocatesNothing) {
  const TupleSpaceRep Rep = GetParam();
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  Vm.run([&]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create(Rep);
    // Round 0 warms the interned symbols and the entry pool.
    for (int Round = 0; Round != 4; ++Round) {
      SCOPED_TRACE(Round);
      Ts->put(tupleFor(Rep, Round));
      Tuple T = templateFor(Rep);
      std::optional<Match> Read;
      const std::uint64_t ReadAllocs =
          allocsDuring([&] { Read = Ts->read(std::move(T)); });
      T = templateFor(Rep);
      std::optional<Match> Taken;
      const std::uint64_t TakeAllocs =
          allocsDuring([&] { Taken = Ts->take(std::move(T)); });
      Ts->put(tupleFor(Rep, Round));
      T = templateFor(Rep);
      std::optional<Match> Tried;
      const std::uint64_t TryAllocs =
          allocsDuring([&] { Tried = Ts->tryTake(std::move(T)); });
      EXPECT_TRUE(Read && Taken && Tried);
      if (Read && Tried && Rep != TupleSpaceRep::Semaphore) {
        EXPECT_EQ(Read->binding(0).asFixnum(), Round);
        EXPECT_EQ(Tried->binding(0).asFixnum(), Round);
      }
      if (Round == 0)
        continue;
      EXPECT_EQ(ReadAllocs, 0u);
      EXPECT_EQ(TakeAllocs, 0u);
      EXPECT_EQ(TryAllocs, 0u);
    }
    return AnyValue();
  });
}

TEST_P(TupleAllocTest, ParkedTakerServedByAPutAllocatesNothing) {
  const TupleSpaceRep Rep = GetParam();
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([&]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create(Rep);
    SpawnOptions Opts;
    Opts.Vp = &Vm.vp(1);
    // Round 0 warms the taker VP's timer heap and the entry pool.
    for (int Round = 0; Round != 4; ++Round) {
      SCOPED_TRACE(Round);
      std::uint64_t TakeAllocs = 0;
      bool Matched = false;
      const std::uint64_t Parked = Vm.aggregateStats().Blocks;
      ThreadRef Taker = TC::forkThread(
          [&]() -> AnyValue {
            Tuple T = templateFor(Rep);
            TakeAllocs = allocsDuring([&] {
              Matched = Ts->takeUntil(std::move(T),
                                      Deadline::in(10'000'000'000))
                            .has_value();
            });
            return AnyValue();
          },
          Opts);
      while (Vm.aggregateStats().Blocks == Parked)
        TC::yieldProcessor(); // until the taker parks
      Ts->put(tupleFor(Rep, Round));
      TC::threadWait(*Taker);
      EXPECT_TRUE(Matched);
      if (Round != 0) {
        EXPECT_EQ(TakeAllocs, 0u);
      }
    }
    return AnyValue();
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllReps, TupleAllocTest,
    ::testing::Values(TupleSpaceRep::Hashed, TupleSpaceRep::Queue,
                      TupleSpaceRep::Bag, TupleSpaceRep::Set,
                      TupleSpaceRep::SharedVariable, TupleSpaceRep::Semaphore,
                      TupleSpaceRep::Vector),
    [](const ::testing::TestParamInfo<TupleSpaceRep> &I) {
      std::string Name = tupleSpaceRepName(I.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(TupleAllocTest, OnlyTuplesPastEightFieldsSpill) {
  // The counter itself works: nine fields and nine formals spill the
  // match's values and its bindings, one allocation each.
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  Vm.run([&]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    auto Nine = [] {
      return makeTuple(formal(0), formal(1), formal(2), formal(3), formal(4),
                       formal(5), formal(6), formal(7), formal(8));
    };
    for (int Round = 0; Round != 2; ++Round) {
      Ts->put(makeTuple(1, 2, 3, 4, 5, 6, 7, 8, 9));
      Tuple T = Nine();
      std::optional<Match> M;
      const std::uint64_t N =
          allocsDuring([&] { M = Ts->take(std::move(T)); });
      EXPECT_TRUE(M && M->binding(8).asFixnum() == 9);
      if (Round != 0) {
        EXPECT_EQ(N, 2u);
      }
    }
    return AnyValue();
  });
}

} // namespace
