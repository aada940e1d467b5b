//===- tests/tuple/TupleHandoffTest.cpp - put→waiter direct handoff -----------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The contended-path contract from DESIGN.md §12: a deposit with parked
// compatible waiters transfers the tuple straight into their slots and
// wakes exactly those threads (counter-asserted, not eyeballed), and the
// registration/consume/unwind state machine conserves tuples — a take
// delivery racing a timeout or a terminate is either kept or re-deposited,
// never dropped and never duplicated. The lane tests pin the delivery
// order (§12.1): a put serves the takers parked on its own VP first, FIFO
// within a lane, then the other lanes in rotation, and a producer that
// never yields holds back only the takers on its own VP.
//
//===----------------------------------------------------------------------===//

#include "tuple/TupleSpace.h"

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "gtest/gtest.h"

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

namespace {

using namespace sting;
using TC = ThreadController;

Tuple takeAll() {
  Tuple T;
  T.push_back(formal(0));
  return T;
}

Tuple jobTemplate() { return makeTuple("job", formal(0)); }

/// Spins until \p Ts has seen at least \p N blocking episodes — i.e. N
/// waiters have registered and are parked or about to park (Blocks is
/// charged after registration, so deposits past this point hand off).
void awaitBlocked(const TupleSpaceRef &Ts, std::uint64_t N) {
  while (Ts->stats().Blocks.load(std::memory_order_acquire) < N)
    TC::yieldProcessor();
}

/// The lane tests' machine: one PP per VP, so a VP runs whenever it has
/// work and a spinning thread holds back only its own VP.
constexpr unsigned LaneVps = 4;

/// Forks \p Code on VP \p Index from outside the machine. Not stealable,
/// so neither an idle VP nor a toucher runs it anywhere else, and it
/// registers in that VP's lane.
ThreadRef forkOn(VirtualMachine &Vm, unsigned Index, Thread::Thunk Code) {
  SpawnOptions Opts;
  Opts.Vp = &Vm.vp(Index);
  Opts.Stealable = false;
  return Vm.fork(std::move(Code), Opts);
}

/// Waits (outside the machine) until \p Ts has seen \p N blocking
/// episodes; false after 10 s.
bool awaitBlockedOutside(const TupleSpaceRef &Ts, std::uint64_t N) {
  const auto Limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Ts->stats().Blocks.load(std::memory_order_acquire) < N) {
    if (std::chrono::steady_clock::now() > Limit)
      return false;
    std::this_thread::yield();
  }
  return true;
}

/// Per VP, the value its taker was handed (-1: none yet).
using GotPerVp = std::array<std::atomic<long>, LaneVps>;

void resetGot(GotPerVp &Got) {
  for (std::atomic<long> &G : Got)
    G.store(-1);
}

/// Parks one taker of \p Template() on each VP of \p Order, in that
/// order, each recording in \p Got what it was handed.
void parkTakersOn(VirtualMachine &Vm, const TupleSpaceRef &Ts,
                  std::initializer_list<unsigned> Order, Tuple (*Template)(),
                  GotPerVp &Got, std::vector<ThreadRef> &Takers) {
  for (unsigned Vp : Order) {
    Takers.push_back(forkOn(Vm, Vp, [&Ts, Template, &Got, Vp]() -> AnyValue {
      EXPECT_EQ(currentVp()->index(), Vp);
      Match M = Ts->take(Template());
      Got[Vp].store(M.binding(0).asFixnum());
      return AnyValue();
    }));
    ASSERT_TRUE(awaitBlockedOutside(Ts, Takers.size()));
  }
}

/// Forks a producer on VP \p Vp that puts \p Values through \p Make and
/// waits for it.
template <typename MakeT>
void produceOn(VirtualMachine &Vm, unsigned Vp, const TupleSpaceRef &Ts,
               long Values, MakeT Make) {
  forkOn(Vm, Vp, [&Ts, Values, Make]() -> AnyValue {
    for (long V = 0; V != Values; ++V)
      Ts->put(Make(V));
    return AnyValue();
  })->join();
}

TEST(TupleHandoffTest, PutWakesExactlyOneParkedTaker) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    constexpr int N = 8;
    std::atomic<long> Sum{0};
    std::vector<ThreadRef> Takers;
    for (int I = 0; I != N; ++I)
      Takers.push_back(TC::forkThread([Ts, &Sum]() -> AnyValue {
        Match M = Ts->take(makeTuple("job", formal(0)));
        Sum.fetch_add(M.binding(0).asFixnum());
        return AnyValue();
      }));
    awaitBlocked(Ts, N);

    for (int I = 0; I != N; ++I)
      Ts->put(makeTuple("job", I));
    for (auto &T : Takers)
      TC::threadWait(*T);

    // Every put landed in a registered taker's slot: one handoff and one
    // wakeup per put, never a broadcast to the other N-1 waiters.
    EXPECT_EQ(Ts->stats().Handoffs.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->stats().Wakeups.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(Sum.load() == N * (N - 1) / 2);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, ReadersAllReceiveTheDepositWhichStaysPut) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    constexpr int N = 3;
    std::atomic<int> Got{0};
    std::vector<ThreadRef> Readers;
    for (int I = 0; I != N; ++I)
      Readers.push_back(TC::forkThread([Ts, &Got]() -> AnyValue {
        Match M = Ts->read(makeTuple("shared", formal(0)));
        if (M.binding(0).asFixnum() == 9)
          Got.fetch_add(1);
        return AnyValue();
      }));
    awaitBlocked(Ts, N);

    Ts->put(makeTuple("shared", 9));
    for (auto &T : Readers)
      TC::threadWait(*T);

    // rd waiters each receive a reference; the tuple itself stays in the
    // space (no take waiter consumed it).
    EXPECT_EQ(Got.load(), N);
    EXPECT_EQ(Ts->stats().Handoffs.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->size(), 1u);
    return AnyValue(Got.load() == N);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, ConservationUnderManyPuttersAndTakers) {
  // M putters race N takers with no phase separation: every deposited
  // value is consumed exactly once whether it travels through the bin
  // (insert then scan) or through a handoff slot.
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    constexpr int Putters = 4, Takers = 4, PerPutter = 64;
    constexpr int Total = Putters * PerPutter;
    static_assert(Total % Takers == 0, "takers must drain the space");
    std::vector<ThreadRef> All;
    for (int P = 0; P != Putters; ++P)
      All.push_back(TC::forkThread([Ts, P]() -> AnyValue {
        for (int I = 0; I != PerPutter; ++I)
          Ts->put(makeTuple("work", P * PerPutter + I));
        return AnyValue();
      }));
    std::atomic<long> Sum{0};
    for (int C = 0; C != Takers; ++C)
      All.push_back(TC::forkThread([Ts, &Sum]() -> AnyValue {
        for (int I = 0; I != Total / Takers; ++I) {
          Match M = Ts->take(makeTuple("work", formal(0)));
          Sum.fetch_add(M.binding(0).asFixnum());
        }
        return AnyValue();
      }));
    for (auto &T : All)
      TC::threadWait(*T);
    long Expect = static_cast<long>(Total) * (Total - 1) / 2;
    EXPECT_EQ(Sum.load(), Expect);
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(Sum.load() == Expect && Ts->size() == 0);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, TimedTakerRacingPutNeverDropsTheTuple) {
  // A timed waiter expiring concurrently with an in-flight handoff: the
  // tuple is either delivered (waiter returns it) or re-deposited (the
  // leftover take finds it) — exactly one of the two, every round.
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    bool Ok = true;
    for (int Round = 0; Round != 200 && Ok; ++Round) {
      // Sweep the deadline through the registration/park window.
      std::uint64_t Nanos = 200u * static_cast<std::uint64_t>(Round % 40);
      ThreadRef Taker = TC::forkThread([Ts, Nanos]() -> AnyValue {
        auto M = Ts->takeFor(makeTuple("race", formal(0)), Nanos);
        return AnyValue(M.has_value());
      });
      for (int Y = 0; Y != Round % 4; ++Y)
        TC::yieldProcessor();
      Ts->put(makeTuple("race", Round));
      bool Delivered = TC::threadValue(*Taker).as<bool>();
      auto Leftover = Ts->tryTake(makeTuple("race", formal(0)));
      Ok = Delivered != Leftover.has_value();
      EXPECT_TRUE(Ok) << "round " << Round << ": delivered=" << Delivered
                      << " leftover=" << Leftover.has_value();
    }
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(Ok && Ts->size() == 0);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, TerminateUnwindsRegisteredWaiterWithoutResidue) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    ThreadRef Taker = TC::forkThread([Ts]() -> AnyValue {
      Ts->take(makeTuple("doomed", formal(0)));
      return AnyValue();
    });
    awaitBlocked(Ts, 1);
    TC::threadTerminate(*Taker);
    TC::threadWait(*Taker);
    EXPECT_TRUE(Taker->wasTerminated());

    // The unwind retracted the registration: a later put must not try to
    // deliver into the dead waiter's frame — it inserts, and a live
    // matcher finds it.
    Ts->put(makeTuple("doomed", 5));
    EXPECT_EQ(Ts->stats().Handoffs.load(), 0u);
    auto M = Ts->tryTake(makeTuple("doomed", formal(0)));
    EXPECT_TRUE(M.has_value());
    return AnyValue(M.has_value() && M->binding(0).asFixnum() == 5);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, QueuePutHandsOffToExactlyOneTaker) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Queue);
    constexpr int N = 6;
    std::atomic<long> Sum{0};
    std::vector<ThreadRef> Takers;
    for (int I = 0; I != N; ++I)
      Takers.push_back(TC::forkThread([Ts, &Sum]() -> AnyValue {
        Match M = Ts->take(takeAll());
        Sum.fetch_add(M.binding(0).asFixnum());
        return AnyValue();
      }));
    awaitBlocked(Ts, N);

    for (int I = 0; I != N; ++I)
      Ts->put(makeTuple(I));
    for (auto &T : Takers)
      TC::threadWait(*T);

    EXPECT_EQ(Ts->stats().Handoffs.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->stats().Wakeups.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(Sum.load() == N * (N - 1) / 2);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, BagDeliversOnlyToValueCompatibleWaiters) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Bag);
    // Two takers parked on distinct value templates: each deposit must
    // satisfy its matching waiter only.
    ThreadRef WantsFive = TC::forkThread([Ts]() -> AnyValue {
      Ts->take(makeTuple(5));
      return AnyValue(true);
    });
    ThreadRef WantsSeven = TC::forkThread([Ts]() -> AnyValue {
      Ts->take(makeTuple(7));
      return AnyValue(true);
    });
    awaitBlocked(Ts, 2);

    Ts->put(makeTuple(7));
    TC::threadWait(*WantsSeven);
    EXPECT_FALSE(WantsFive->isDetermined());
    Ts->put(makeTuple(5));
    TC::threadWait(*WantsFive);

    EXPECT_EQ(Ts->stats().Handoffs.load(), 2u);
    EXPECT_EQ(Ts->stats().Wakeups.load(), 2u);
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, PutPrefersATakerParkedOnItsOwnVp) {
  VirtualMachine Vm(VmConfig{.NumVps = LaneVps, .NumPps = LaneVps});
  TupleSpaceRef Ts = TupleSpace::create();
  GotPerVp Got;
  resetGot(Got);
  std::vector<ThreadRef> Takers;
  // VP 0's taker registers last: one FIFO over the whole bin would hand
  // the first put to VP 1's.
  parkTakersOn(Vm, Ts, {1, 2, 3, 0}, jobTemplate, Got, Takers);

  produceOn(Vm, 0, Ts, 4, [](long V) { return makeTuple("job", V); });
  for (const ThreadRef &T : Takers)
    T->join();

  // The producer's own lane first, then lanes 1, 2, 3 in rotation.
  EXPECT_EQ(Got[0].load(), 0);
  EXPECT_EQ(Got[1].load(), 1);
  EXPECT_EQ(Got[2].load(), 2);
  EXPECT_EQ(Got[3].load(), 3);
  EXPECT_EQ(Ts->stats().Handoffs.load(), 4u);
  EXPECT_EQ(Ts->size(), 0u);
  const obs::SchedStatsSnapshot Vp0 = Vm.perVpStats()[0];
  EXPECT_EQ(Vp0.TupleHandoffs, 4u);
  EXPECT_EQ(Vp0.TupleLocalHandoffs, 1u);
}

TEST(TupleHandoffTest, OneLaneDeliversInRegistrationOrder) {
  VirtualMachine Vm(VmConfig{.NumVps = LaneVps, .NumPps = LaneVps});
  TupleSpaceRef Ts = TupleSpace::create();
  constexpr int N = 3;
  GotPerVp Got; // here indexed by registration order
  resetGot(Got);
  std::vector<ThreadRef> Takers;
  for (int I = 0; I != N; ++I) {
    Takers.push_back(forkOn(Vm, 1, [&Ts, &Got, I]() -> AnyValue {
      Got[I].store(Ts->take(makeTuple("job", formal(0))).binding(0).asFixnum());
      return AnyValue();
    }));
    ASSERT_TRUE(awaitBlockedOutside(Ts, I + 1));
  }

  produceOn(Vm, 1, Ts, N, [](long V) { return makeTuple("job", V); });
  for (const ThreadRef &T : Takers)
    T->join();

  for (int I = 0; I != N; ++I)
    EXPECT_EQ(Got[I].load(), I) << "taker " << I;
  const obs::SchedStatsSnapshot Vp1 = Vm.perVpStats()[1];
  EXPECT_EQ(Vp1.TupleLocalHandoffs, static_cast<std::uint64_t>(N));
}

TEST(TupleHandoffTest, PutsWithNoLocalTakerReachEveryLane) {
  // A put from a VP whose lane is empty, and one from outside every VP,
  // serve takers in the other lanes, a registration proxy (the off-VP
  // lane) included.
  VirtualMachine Vm(VmConfig{.NumVps = LaneVps, .NumPps = LaneVps});
  TupleSpaceRef Ts = TupleSpace::create();
  GotPerVp Got;
  resetGot(Got);
  std::vector<ThreadRef> Takers;
  parkTakersOn(Vm, Ts, {1, 2, 3}, jobTemplate, Got, Takers);
  std::atomic<long> ProxyGot{-1};
  ASSERT_TRUE(Ts->registerProxy(
      7, makeTuple("job", formal(0)), /*Remove=*/true,
      [&](std::uint64_t, Match M) { ProxyGot.store(M.binding(0).asFixnum()); }));

  // From VP 0: its lane is empty, so the rotation from lane 0 serves
  // lanes 1 and 2.
  produceOn(Vm, 0, Ts, 2, [](long V) { return makeTuple("job", V); });
  // From outside: the off-VP lane (the proxy) first, then lane 3.
  Ts->put(makeTuple("job", 2));
  Ts->put(makeTuple("job", 3));
  for (const ThreadRef &T : Takers)
    T->join();

  EXPECT_EQ(Got[1].load(), 0);
  EXPECT_EQ(Got[2].load(), 1);
  EXPECT_EQ(ProxyGot.load(), 2);
  EXPECT_EQ(Got[3].load(), 3);
  EXPECT_EQ(Ts->stats().Handoffs.load(), 4u);
  EXPECT_EQ(Ts->size(), 0u);
  EXPECT_FALSE(Ts->retractProxy(7)); // delivered, not armed
  EXPECT_EQ(Vm.perVpStats()[0].TupleLocalHandoffs, 0u);
}

TEST(TupleHandoffTest, ABusyProducerDelaysAtMostItsLocalTakers) {
  // The producer parks one taker on its own VP and three on the others,
  // puts four tuples and then spins with no controller call. Its own VP
  // cannot run the local taker, which was handed the first tuple, but the
  // other three are served and finish meanwhile.
  VirtualMachine Vm(VmConfig{.NumVps = LaneVps, .NumPps = LaneVps});
  TupleSpaceRef Ts = TupleSpace::create();
  std::array<std::atomic<bool>, LaneVps> Done{};
  GotPerVp Got;
  resetGot(Got);
  std::vector<ThreadRef> Takers;
  for (unsigned Vp : {1u, 2u, 3u, 0u}) {
    Takers.push_back(forkOn(Vm, Vp, [&Ts, &Done, &Got, Vp]() -> AnyValue {
      // Timed, so a lost tuple fails the test instead of hanging it.
      auto M = Ts->takeFor(makeTuple("job", formal(0)), 20'000'000'000);
      if (M)
        Got[Vp].store(M->binding(0).asFixnum());
      Done[Vp].store(true);
      return AnyValue();
    }));
    ASSERT_TRUE(awaitBlockedOutside(Ts, Takers.size()));
  }

  bool RemotesDone = false, LocalDone = true;
  forkOn(Vm, 0, [&]() -> AnyValue {
    for (long V = 0; V != 4; ++V)
      Ts->put(makeTuple("job", V));
    const auto Limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!(RemotesDone = Done[1] && Done[2] && Done[3]) &&
           std::chrono::steady_clock::now() < Limit)
      ;
    LocalDone = Done[0];
    TC::yieldProcessor(); // now the local taker may run
    return AnyValue();
  })->join();
  for (const ThreadRef &T : Takers)
    T->join();

  EXPECT_TRUE(RemotesDone) << "a spinning producer starved remote takers";
  EXPECT_FALSE(LocalDone) << "the local taker ran on a busy VP";
  EXPECT_EQ(Got[0].load(), 0);
  for (unsigned Vp = 1; Vp != LaneVps; ++Vp)
    EXPECT_GT(Got[Vp].load(), 0) << "vp " << Vp;
  EXPECT_EQ(Ts->size(), 0u);
}

TEST(TupleHandoffTest, QueuePutPrefersATakerParkedOnItsOwnVp) {
  VirtualMachine Vm(VmConfig{.NumVps = LaneVps, .NumPps = LaneVps});
  TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Queue);
  GotPerVp Got;
  resetGot(Got);
  std::vector<ThreadRef> Takers;
  parkTakersOn(Vm, Ts, {1, 2, 3, 0}, takeAll, Got, Takers);

  produceOn(Vm, 0, Ts, 4, [](long V) { return makeTuple(V); });
  for (const ThreadRef &T : Takers)
    T->join();

  EXPECT_EQ(Got[0].load(), 0);
  EXPECT_EQ(Got[1].load(), 1);
  EXPECT_EQ(Got[2].load(), 2);
  EXPECT_EQ(Got[3].load(), 3);
  EXPECT_EQ(Ts->stats().Handoffs.load(), 4u);
  EXPECT_EQ(Ts->size(), 0u);
}

} // namespace
