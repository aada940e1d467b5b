//===- tests/sync/FutureTest.cpp - Futures (paper 4.1) ------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "sync/Future.h"

#include "core/VirtualMachine.h"
#include "gtest/gtest.h"

#include <stdexcept>
#include <string>

namespace {

using namespace sting;
using TC = ThreadController;

TEST(FutureTest, EagerFutureComputes) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    auto F = future([] { return 6 * 7; });
    return AnyValue(F.touch());
  });
  EXPECT_EQ(V.as<int>(), 42);
}

TEST(FutureTest, TouchOfDeterminedIsIdempotent) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    auto F = future([] { return std::string("ok"); });
    F.touch();
    return AnyValue(F.touch() == "ok" && F.isDetermined());
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(FutureTest, DelayedFutureStolenOnTouch) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    auto F = delay([] { return 11; });
    EXPECT_EQ(F.thread().state(), ThreadState::Delayed);
    int Result = F.touch(); // steals onto this TCB
    return AnyValue(Result);
  });
  EXPECT_EQ(V.as<int>(), 11);
  EXPECT_GE(Vm.aggregateStats().StealsSucceeded, 1u);
}

TEST(FutureTest, DelayedFutureCanBeScheduled) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    auto F = delay([] { return 3; });
    F.run(); // thread-run: schedule instead of stealing
    return AnyValue(F.touch());
  });
  EXPECT_EQ(V.as<int>(), 3);
}

TEST(FutureTest, ExceptionPropagatesThroughTouch) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    auto F = future([]() -> int { throw std::runtime_error("fail"); });
    try {
      F.touch();
      return AnyValue(false);
    } catch (const std::runtime_error &E) {
      return AnyValue(std::string(E.what()) == "fail");
    }
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(FutureTest, ParallelPrimesViaFutures) {
  // The paper's Fig. 3 program: primality via futures over the primes list.
  VirtualMachine Vm(VmConfig{.NumVps = 2, .Policy = makeLocalLifoPolicy()});
  AnyValue V = Vm.run([]() -> AnyValue {
    constexpr int Limit = 200;
    // futures[k] computes whether 2k+3 is prime by trial division.
    std::vector<Future<bool>> Futures;
    for (int N = 3; N < Limit; N += 2)
      Futures.push_back(future([N] {
        for (int J = 3; J * J <= N; J += 2)
          if (N % J == 0)
            return false;
        return true;
      }));
    int Count = 1; // 2 is prime
    for (auto &F : Futures)
      Count += F.touch() ? 1 : 0;
    return AnyValue(Count);
  });
  EXPECT_EQ(V.as<int>(), 46); // pi(200) = 46
}

TEST(FutureTest, FutureOfMoveOnlyType) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    auto F = future([] { return std::make_unique<int>(9); });
    return AnyValue(*F.touch());
  });
  EXPECT_EQ(V.as<int>(), 9);
}

TEST(FutureTest, ChainedFuturesUnfoldViaStealing) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    std::vector<Future<long>> Chain;
    Chain.push_back(Future<long>::delayed([] { return 1l; }));
    for (int I = 1; I != 30; ++I) {
      auto Prev = Chain.back();
      Chain.push_back(
          Future<long>::delayed([Prev] { return Prev.touch() + 1; }));
    }
    return AnyValue(Chain.back().touch());
  });
  EXPECT_EQ(V.as<long>(), 30l);
}

} // namespace
