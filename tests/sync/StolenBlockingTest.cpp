//===- tests/sync/StolenBlockingTest.cpp - Blocking inside a stolen thunk ----===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// A delayed thread stolen by a joiner runs on the joiner's TCB (paper
// section 4.1.1), so when the stolen thunk blocks, the TCB that parks
// belongs to the stealer. Every blocking primitive must wake that TCB.
//
// Each row runs one primitive the same way: a stealable delayed thread
// blocks in a 2 s timed wait, the root steals it through threadValue, and
// an unstealable thread on the other VP releases it 20 ms after it starts
// waiting. The wait must return its value well before its deadline. A
// wake sent to the wrong thread is dropped, and the wait then ends only
// at its deadline, so a lost wake fails the row without hanging it.
//
//===----------------------------------------------------------------------===//

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "support/Chaos.h"
#include "support/Clock.h"
#include "sync/Barrier.h"
#include "sync/Channel.h"
#include "sync/Future.h"
#include "sync/Mutex.h"
#include "sync/Semaphore.h"
#include "sync/Stream.h"
#include "tuple/TupleSpace.h"
#include "gtest/gtest.h"

#include <atomic>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

constexpr std::uint64_t WaitNanos = 2'000'000'000;     // 2 s
constexpr std::uint64_t ReleaseAfterNanos = 20'000'000; // 20 ms
constexpr std::uint64_t LimitNanos = 500'000'000;       // 500 ms

/// One blocking primitive: Wait blocks for at most its argument (nanos)
/// until Release runs, and returns true if it got its value.
struct Episode {
  std::function<bool(std::uint64_t)> Wait;
  std::function<void()> Release;
};

struct Row {
  std::string Name;
  /// Builds the episode on the root thread; \p Other is the VP the
  /// releaser runs on.
  std::function<Episode(VirtualProcessor &Other)> Make;
};

void PrintTo(const Row &R, std::ostream *OS) { *OS << R.Name; }

Episode tupleEpisode(TupleSpaceRep Rep, bool Remove) {
  // Each representation's tuple shape, ending in Last.
  auto Shape = [Rep](auto Last) {
    switch (Rep) {
    case TupleSpaceRep::Hashed:
      return makeTuple("key", std::move(Last));
    case TupleSpaceRep::Vector:
      return makeTuple(0, std::move(Last));
    default:
      return makeTuple(std::move(Last));
    }
  };
  TupleSpaceRef Ts = TupleSpace::create(Rep);
  return {[=](std::uint64_t Nanos) {
            return (Remove ? Ts->takeFor(Shape(formal(0)), Nanos)
                           : Ts->readFor(Shape(formal(0)), Nanos))
                .has_value();
          },
          [=] { Ts->put(Shape(7)); }};
}

/// A thread waited on by identity: unstealable, on \p Vp, it yields until
/// the episode's release opens its gate, then returns 7.
Episode threadEpisode(VirtualProcessor &Vp, bool AsFuture) {
  auto Gate = std::make_shared<std::atomic<bool>>(false);
  SpawnOptions Opts;
  Opts.Vp = &Vp;
  Opts.Stealable = false;
  ThreadRef T = TC::forkThread(
      [Gate]() -> AnyValue {
        while (!Gate->load(std::memory_order_acquire))
          TC::yieldProcessor();
        return AnyValue(7L);
      },
      Opts);
  auto Release = [Gate] { Gate->store(true, std::memory_order_release); };
  if (AsFuture)
    return {[F = Future<long>(T)](std::uint64_t Nanos) {
              const long *V = F.touchFor(Nanos);
              return V && *V == 7;
            },
            Release};
  return {[T](std::uint64_t Nanos) {
            return TC::threadWaitFor(*T, Deadline::in(Nanos)) &&
                   T->result().as<long>() == 7;
          },
          Release};
}

std::vector<Row> rows() {
  std::vector<Row> Rows;
  for (TupleSpaceRep Rep :
       {TupleSpaceRep::Hashed, TupleSpaceRep::Queue, TupleSpaceRep::Bag,
        TupleSpaceRep::Set, TupleSpaceRep::SharedVariable,
        TupleSpaceRep::Semaphore, TupleSpaceRep::Vector}) {
    std::string RepName = tupleSpaceRepName(Rep);
    for (char &C : RepName)
      if (C == '-')
        C = '_';
    for (bool Remove : {true, false})
      Rows.push_back({(Remove ? "Take_" : "Read_") + RepName,
                      [Rep, Remove](VirtualProcessor &) {
                        return tupleEpisode(Rep, Remove);
                      }});
  }
  Rows.push_back({"FutureTouch", [](VirtualProcessor &Other) {
                    return threadEpisode(Other, /*AsFuture=*/true);
                  }});
  Rows.push_back({"ThreadWait", [](VirtualProcessor &Other) {
                    return threadEpisode(Other, /*AsFuture=*/false);
                  }});
  Rows.push_back({"Mutex", [](VirtualProcessor &) {
                    auto M = std::make_shared<Mutex>();
                    EXPECT_TRUE(M->tryAcquire()); // held until the release
                    return Episode{[M](std::uint64_t Nanos) {
                                     if (!M->tryAcquireFor(Nanos))
                                       return false;
                                     M->release();
                                     return true;
                                   },
                                   [M] { M->release(); }};
                  }});
  Rows.push_back({"Semaphore", [](VirtualProcessor &) {
                    auto S = std::make_shared<Semaphore>(0);
                    return Episode{[S](std::uint64_t Nanos) {
                                     return S->tryAcquireFor(Nanos);
                                   },
                                   [S] { S->release(); }};
                  }});
  Rows.push_back({"Barrier", [](VirtualProcessor &) {
                    auto B = std::make_shared<CyclicBarrier>(2);
                    return Episode{[B](std::uint64_t Nanos) {
                                     return B->arriveAndWaitFor(Nanos)
                                         .has_value();
                                   },
                                   [B] { B->arriveAndWait(); }};
                  }});
  Rows.push_back({"ChannelRecv", [](VirtualProcessor &) {
                    auto C = std::make_shared<Channel<long>>(1);
                    return Episode{[C](std::uint64_t Nanos) {
                                     return C->recvFor(Nanos) == 7;
                                   },
                                   [C] { C->send(7); }};
                  }});
  Rows.push_back({"StreamNext", [](VirtualProcessor &) {
                    auto S = std::make_shared<Stream<long>>();
                    return Episode{[S](std::uint64_t Nanos) {
                                     auto Pos = S->begin();
                                     return S->nextFor(Pos, Nanos) == 7;
                                   },
                                   [S] { S->attach(7); }};
                  }});
  return Rows;
}

class StolenBlockingTest : public ::testing::TestWithParam<Row> {};

TEST_P(StolenBlockingTest, ReleaseWakesTheStealer) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([&]() -> AnyValue {
    VirtualProcessor &Other = &Vm.vp(0) == currentVp() ? Vm.vp(1) : Vm.vp(0);
    Episode E = GetParam().Make(Other);
    std::atomic<bool> Waiting{false};
    bool Stolen = false;
    bool Got = false;
    std::uint64_t WaitedNanos = 0;
    ThreadRef Waiter = TC::createThread([&]() -> AnyValue {
      // A stolen thunk runs on its stealer's TCB.
      Stolen = currentTcb()->thread() != currentThread();
      Waiting.store(true, std::memory_order_release);
      StopWatch Timer;
      Got = E.Wait(WaitNanos);
      WaitedNanos = Timer.elapsedNanos();
      return AnyValue();
    });
    SpawnOptions Opts;
    Opts.Vp = &Other;
    Opts.Stealable = false;
    ThreadRef Releaser = TC::forkThread(
        [&]() -> AnyValue {
          while (!Waiting.load(std::memory_order_acquire))
            TC::yieldProcessor();
          StopWatch Timer;
          while (Timer.elapsedNanos() < ReleaseAfterNanos)
            TC::yieldProcessor();
          E.Release();
          return AnyValue();
        },
        Opts);
    TC::threadValue(*Waiter);
    TC::threadWait(*Releaser);
    // Injected steal denials run the waiter on its own TCB instead.
    if (!chaos::enabled()) {
      EXPECT_TRUE(Stolen) << "the root did not steal the waiter";
    }
    EXPECT_TRUE(Got) << "the wait timed out";
    EXPECT_LT(WaitedNanos, LimitNanos)
        << "the release did not wake the wait; it returned after "
        << WaitedNanos / 1'000'000 << " ms";
    return AnyValue();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Primitives, StolenBlockingTest, ::testing::ValuesIn(rows()),
    [](const ::testing::TestParamInfo<Row> &Info) { return Info.param.Name; });

} // namespace
