//===- tests/gc/ThreadGcTest.cpp - Storage model under real concurrency ------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The paper's storage claims exercised by actual threads: per-TCB heaps
// created lazily and recycled, independent scavenges with no global
// synchronization, and escape promotion as the cross-thread hand-off.
//
//===----------------------------------------------------------------------===//

#include "core/Gc.h"

#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "gc/GlobalHeap.h"
#include "gc/Object.h"
#include "sync/Channel.h"
#include "tuple/TupleSpace.h"
#include "gtest/gtest.h"

#include <atomic>

namespace {

using namespace sting;
using TC = ThreadController;
namespace g = sting::gc;

TEST(ThreadGcTest, EachThreadGetsItsOwnHeap) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    g::LocalHeap *Mine = &mutatorHeap();
    SpawnOptions Opts;
    Opts.Stealable = false; // a stolen thunk would share this TCB's heap
    ThreadRef Other = TC::forkThread(
        []() -> AnyValue { return AnyValue(&mutatorHeap()); }, Opts);
    g::LocalHeap *Theirs = TC::threadValue(*Other).as<g::LocalHeap *>();
    return AnyValue(Mine != Theirs);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ThreadGcTest, HeapsShareTheMachinesOldGeneration) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([&]() -> AnyValue {
    return AnyValue(&mutatorHeap().global());
  });
  EXPECT_EQ(V.as<g::GlobalHeap *>(), &Vm.globalHeap());
}

TEST(ThreadGcTest, ConcurrentIndependentScavenges) {
  // The headline claim: "threads garbage collect their state independently
  // of one another; no global synchronization is necessary". Workers churn
  // allocation hard enough to force many scavenges each, while verifying
  // their own live data. A TCB's heap (and its counters) carries over to
  // the next thread the TCB runs, so each worker counts from its own start:
  // workers that reuse one TCB after another must not lend each other
  // scavenges, and workers spread over fresh TCBs must still collect.
  VirtualMachine Vm(VmConfig{.NumVps = 4, .NumPps = 2});
  std::atomic<int> Failures{0};
  std::vector<ThreadRef> Workers;
  for (int W = 0; W != 6; ++W)
    Workers.push_back(Vm.fork([W, &Failures]() -> AnyValue {
      g::LocalHeap &Heap = mutatorHeap();
      const std::uint64_t Before = Heap.stats().Scavenges;
      g::HandleScope Scope(Heap);
      g::Handle List(Scope, g::Value::nil());
      constexpr int N = 4000;
      for (int I = 0; I != N; ++I) {
        List.set(Heap.cons(g::Value::fixnum(W * N + I), List.get()));
        // Garbage interleaved to trigger collections: four pairs per live
        // one overflow even a fresh young area more than once.
        for (int K = 0; K != 4; ++K)
          Heap.cons(g::Value::fixnum(I), g::Value::nil());
      }
      // Verify the whole list.
      g::Value L = List.get();
      for (int I = N - 1; I >= 0; --I) {
        if (g::car(L).asFixnum() != W * N + I) {
          Failures.fetch_add(1);
          break;
        }
        L = g::cdr(L);
      }
      return AnyValue(Heap.stats().Scavenges - Before);
    }));
  std::uint64_t TotalScavenges = 0;
  for (std::size_t W = 0; W != Workers.size(); ++W) {
    Workers[W]->join();
    const auto Own = Workers[W]->valueAs<std::uint64_t>();
    EXPECT_GE(Own, 1u) << "worker " << W << " never scavenged its own heap";
    TotalScavenges += Own;
  }
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(TotalScavenges, 6u) << "workload never scavenged";
}

TEST(ThreadGcTest, EscapeHandsDataBetweenThreads) {
  // Producer builds young structures, escapes them, sends them through a
  // channel; the consumer (different thread, different heap) must read
  // them after the producer's heap has churned past several scavenges.
  VirtualMachine Vm(VmConfig{.NumVps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    Channel<g::Value> Ch(4);
    constexpr int Messages = 200;

    ThreadRef Producer = TC::forkThread([&]() -> AnyValue {
      g::LocalHeap &Heap = mutatorHeap();
      for (int I = 0; I != Messages; ++I) {
        g::HandleScope Scope(Heap);
        g::Value Pair = Heap.cons(g::Value::fixnum(I),
                                  Heap.makeString("payload"));
        Ch.send(Heap.escape(Pair));
        // Churn: force the young area to turn over.
        for (int J = 0; J != 50; ++J)
          Heap.cons(g::Value::fixnum(J), g::Value::nil());
      }
      return AnyValue();
    });

    bool AllGood = true;
    for (int I = 0; I != Messages; ++I) {
      g::Value Msg = Ch.recv();
      AllGood &= Msg.asObject()->isInOld();
      AllGood &= g::car(Msg).asFixnum() == I;
      AllGood &= g::textOf(g::cdr(Msg)) == "payload";
    }
    TC::threadWait(*Producer);
    return AnyValue(AllGood);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ThreadGcTest, HeapRecycledWithTcb) {
  // TCBs (and their heaps) are cached and reused; a fresh thread must not
  // see the previous occupant's young data as live.
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  AnyValue V = Vm.run([]() -> AnyValue {
    SpawnOptions Opts;
    Opts.Stealable = false;
    std::uint64_t FirstAllocated = 0;
    for (int Round = 0; Round != 10; ++Round) {
      ThreadRef T = TC::forkThread(
          [&FirstAllocated]() -> AnyValue {
            g::LocalHeap &Heap = mutatorHeap();
            g::HandleScope Scope(Heap);
            for (int I = 0; I != 100; ++I)
              Heap.cons(g::Value::fixnum(I), g::Value::nil());
            if (FirstAllocated == 0)
              FirstAllocated = Heap.stats().ObjectsAllocated;
            return AnyValue();
          },
          Opts);
      TC::threadWait(*T);
    }
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ThreadGcTest, StolenThreadAllocatesOnStealersHeap) {
  // Section 4.1.1's locality argument: the stolen thunk reuses the
  // toucher's TCB, hence its heap.
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    g::LocalHeap *Mine = &mutatorHeap();
    ThreadRef Lazy = TC::createThread([]() -> AnyValue {
      return AnyValue(&mutatorHeap());
    });
    g::LocalHeap *Stolen = TC::threadValue(*Lazy).as<g::LocalHeap *>();
    return AnyValue(Stolen == Mine);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ThreadGcTest, TupleValuesSurviveProducerChurn) {
  // A tuple space stores escaped values; after the producer's young heap
  // fully turns over, the stored structure must still be intact.
  VirtualMachine Vm;
  AnyValue V = Vm.run([&]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    {
      g::LocalHeap &Heap = mutatorHeap();
      g::HandleScope Scope(Heap);
      g::Value List = g::Value::nil();
      for (int I = 0; I != 5; ++I)
        List = Heap.cons(g::Value::fixnum(I), List);
      Ts->put(makeTuple("data", List));
      for (int J = 0; J != 20000; ++J)
        Heap.cons(g::Value::fixnum(J), g::Value::nil()); // churn
    }
    Match M = Ts->take(makeTuple("data", formal(0)));
    return AnyValue(g::listLength(M.binding(0)) == 5 &&
                    g::car(M.binding(0)).asFixnum() == 4);
  });
  EXPECT_TRUE(V.as<bool>());
}

} // namespace
