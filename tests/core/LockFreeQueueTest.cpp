//===- tests/core/LockFreeQueueTest.cpp - Fast-path queue tests ------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The lock-free scheduling fast path (DESIGN.md section 8) in isolation:
// the Chase-Lev deque (owner ops vs. concurrent thieves, growth under
// race, the last-element CAS), the MPSC remote mailbox (order, overflow,
// multi-producer conservation), and the end-to-end no-lost-wakeup
// property of remote enqueues against parked VPs. The concurrency tests
// are conservation arguments — every item consumed exactly once — and are
// meant to run under TSan and ASan in CI.
//
//===----------------------------------------------------------------------===//

#include "core/policy/RemoteMailbox.h"
#include "core/policy/WorkStealingDeque.h"

#include "core/VirtualMachine.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace {

using namespace sting;

/// Minimal concrete Schedulable for queue tests (never dispatched, so the
/// Thread/Tcb downcasts are never exercised).
struct Item final : Schedulable {
  explicit Item(int V = 0) : Schedulable(Kind::Thread), Value(V) {}
  int Value;
};

std::vector<std::unique_ptr<Item>> makeItems(int N) {
  std::vector<std::unique_ptr<Item>> Items;
  Items.reserve(static_cast<std::size_t>(N));
  for (int I = 0; I != N; ++I)
    Items.push_back(std::make_unique<Item>(I));
  return Items;
}

//===----------------------------------------------------------------------===//
// Chase-Lev deque
//===----------------------------------------------------------------------===//

TEST(DequeTest, PopBottomIsLifo) {
  WorkStealingDeque D;
  auto Items = makeItems(3);
  for (auto &I : Items)
    D.pushBottom(*I);
  EXPECT_EQ(D.size(), 3u);
  EXPECT_EQ(D.popBottom(), Items[2].get());
  EXPECT_EQ(D.popBottom(), Items[1].get());
  EXPECT_EQ(D.popBottom(), Items[0].get());
  EXPECT_EQ(D.popBottom(), nullptr);
  EXPECT_TRUE(D.empty());
}

TEST(DequeTest, TakeTopIsFifo) {
  WorkStealingDeque D;
  auto Items = makeItems(3);
  for (auto &I : Items)
    D.pushBottom(*I);
  EXPECT_EQ(D.takeTop(), Items[0].get());
  EXPECT_EQ(D.takeTop(), Items[1].get());
  EXPECT_EQ(D.takeTop(), Items[2].get());
  EXPECT_EQ(D.takeTop(), nullptr);
}

TEST(DequeTest, StealTakesOldest) {
  WorkStealingDeque D;
  auto Items = makeItems(2);
  for (auto &I : Items)
    D.pushBottom(*I);
  Schedulable *Out = nullptr;
  ASSERT_EQ(D.steal(Out), WorkStealingDeque::StealResult::Ok);
  EXPECT_EQ(Out, Items[0].get());
  EXPECT_EQ(D.popBottom(), Items[1].get());
  ASSERT_EQ(D.steal(Out), WorkStealingDeque::StealResult::Empty);
}

TEST(DequeTest, GrowthPreservesContentsAndOrder) {
  WorkStealingDeque D(8);
  const std::size_t Initial = D.capacity();
  auto Items = makeItems(1000); // forces several doublings
  for (auto &I : Items)
    D.pushBottom(*I);
  EXPECT_GT(D.capacity(), Initial);
  EXPECT_EQ(D.size(), 1000u);
  for (int I = 0; I != 1000; ++I) {
    Schedulable *Got = D.takeTop();
    ASSERT_NE(Got, nullptr);
    EXPECT_EQ(static_cast<Item *>(Got)->Value, I);
  }
  EXPECT_TRUE(D.empty());
}

TEST(DequeTest, WraparoundAfterInterleavedPushPop) {
  WorkStealingDeque D(8);
  auto Items = makeItems(64);
  // Push/pop churn walks the indices far past the ring capacity without
  // ever holding more than 4 elements, exercising index wraparound.
  std::size_t Next = 0;
  for (int Round = 0; Round != 200; ++Round) {
    for (int K = 0; K != 4; ++K)
      D.pushBottom(*Items[(Next++) % Items.size()]);
    for (int K = 0; K != 4; ++K)
      ASSERT_NE(D.popBottom(), nullptr);
  }
  EXPECT_TRUE(D.empty());
  EXPECT_EQ(D.capacity(), 8u);
}

// Conservation under concurrency: one owner pushing and popping at the
// bottom, two thieves stealing from the top, growth forced mid-race by the
// tiny initial ring. Every item must be consumed by exactly one party.
TEST(DequeTest, OwnerVsThievesStress) {
  constexpr int N = 20000;
  WorkStealingDeque D(8);
  auto Items = makeItems(N);

  std::atomic<bool> Done{false};
  std::vector<std::vector<int>> Stolen(2);
  std::vector<std::thread> Thieves;
  for (int T = 0; T != 2; ++T)
    Thieves.emplace_back([&, T] {
      auto &Mine = Stolen[static_cast<std::size_t>(T)];
      for (;;) {
        Schedulable *Out = nullptr;
        switch (D.steal(Out)) {
        case WorkStealingDeque::StealResult::Ok:
          Mine.push_back(static_cast<Item *>(Out)->Value);
          break;
        case WorkStealingDeque::StealResult::Lost:
          break; // re-read and retry
        case WorkStealingDeque::StealResult::Empty:
          if (Done.load(std::memory_order_acquire))
            return;
          std::this_thread::yield();
          break;
        }
      }
    });

  std::vector<int> Popped;
  for (int I = 0; I != N; ++I) {
    D.pushBottom(*Items[static_cast<std::size_t>(I)]);
    // Pop every third push so the owner end stays hot and the last-element
    // race (Top == Bottom) occurs repeatedly at shallow depths.
    if (I % 3 == 0)
      if (Schedulable *Out = D.popBottom())
        Popped.push_back(static_cast<Item *>(Out)->Value);
  }
  while (Schedulable *Out = D.popBottom())
    Popped.push_back(static_cast<Item *>(Out)->Value);
  Done.store(true, std::memory_order_release);
  for (auto &T : Thieves)
    T.join();

  // The deque can only be empty now: thieves saw Empty after Done.
  EXPECT_TRUE(D.empty());

  std::vector<int> All = Popped;
  for (auto &V : Stolen)
    All.insert(All.end(), V.begin(), V.end());
  ASSERT_EQ(All.size(), static_cast<std::size_t>(N));
  std::sort(All.begin(), All.end());
  for (int I = 0; I != N; ++I)
    ASSERT_EQ(All[static_cast<std::size_t>(I)], I) << "duplicated or lost";
}

// The last-element race in isolation: a deque holding exactly one item,
// the owner popping the bottom while a thief steals the top. Exactly one
// side must win each round.
TEST(DequeTest, LastElementGoesToExactlyOneConsumer) {
  constexpr int Rounds = 2000;
  WorkStealingDeque D;
  Item Only(7);

  std::atomic<int> Go{0};
  std::atomic<int> ThiefDone{0};
  std::atomic<Schedulable *> ThiefGot{nullptr};

  std::thread Thief([&] {
    for (int R = 1; R <= Rounds; ++R) {
      while (Go.load(std::memory_order_acquire) != R)
        std::this_thread::yield();
      for (;;) {
        Schedulable *Out = nullptr;
        auto Res = D.steal(Out);
        if (Res == WorkStealingDeque::StealResult::Ok) {
          ThiefGot.store(Out, std::memory_order_release);
          break;
        }
        if (Res == WorkStealingDeque::StealResult::Empty)
          break;
        // Lost: the owner's pop may have won the CAS; re-read.
      }
      ThiefDone.store(R, std::memory_order_release);
    }
  });

  for (int R = 1; R <= Rounds; ++R) {
    D.pushBottom(Only);
    Go.store(R, std::memory_order_release);
    Schedulable *Mine = D.popBottom();
    while (ThiefDone.load(std::memory_order_acquire) != R)
      std::this_thread::yield();
    Schedulable *Theirs = ThiefGot.exchange(nullptr);
    ASSERT_NE(Mine == nullptr, Theirs == nullptr)
        << "round " << R << ": item lost or duplicated";
    ASSERT_EQ(Mine ? Mine : Theirs, &Only);
    ASSERT_TRUE(D.empty());
  }
  Thief.join();
}

//===----------------------------------------------------------------------===//
// Remote mailbox
//===----------------------------------------------------------------------===//

TEST(MailboxTest, DrainDeliversInPostOrder) {
  RemoteMailbox M(64);
  auto Items = makeItems(10);
  for (auto &I : Items)
    EXPECT_TRUE(M.post(*I)); // all fit: ring path
  EXPECT_FALSE(M.empty());
  std::vector<int> Got;
  std::size_t N = M.drain(
      [&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
  EXPECT_EQ(N, 10u);
  ASSERT_EQ(Got.size(), 10u);
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(Got[static_cast<std::size_t>(I)], I);
  EXPECT_TRUE(M.empty());
}

TEST(MailboxTest, OverflowSpillsAndDrainsEverything) {
  RemoteMailbox M(8); // rounds to capacity 8
  auto Items = makeItems(20);
  int RingPosts = 0;
  for (auto &I : Items)
    RingPosts += M.post(*I) ? 1 : 0;
  EXPECT_EQ(RingPosts, 8);       // ring filled first
  EXPECT_EQ(M.size(), 20u);      // overflow counted
  EXPECT_FALSE(M.empty());
  std::vector<int> Got;
  std::size_t N = M.drain(
      [&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
  EXPECT_EQ(N, 20u);
  // Ring items (0..7) come first and in order; the spilled tail keeps its
  // own order too.
  ASSERT_EQ(Got.size(), 20u);
  for (int I = 0; I != 20; ++I)
    EXPECT_EQ(Got[static_cast<std::size_t>(I)], I);
  EXPECT_TRUE(M.empty());
}

TEST(MailboxTest, OverflowChainsASecondRing) {
  RemoteMailbox M(8);
  EXPECT_EQ(M.ringCount(), 1u);
  auto Items = makeItems(64);
  for (auto &I : Items)
    M.post(*I);
  // The spill CAS-installed chained rings rather than taking a lock.
  EXPECT_GE(M.ringCount(), 2u);
  EXPECT_EQ(M.size(), 64u);

  // A single burst drained by one call survives the ring boundary in
  // post order: primary drains first, then each chained ring in install
  // order. (This is the strongest order the mailbox promises — across
  // *separate* drains, chained-ring residue can be delivered after later
  // posts to the refilled primary; see RemoteMailbox::drain.)
  std::vector<int> Got;
  std::size_t N = M.drain(
      [&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
  EXPECT_EQ(N, 64u);
  ASSERT_EQ(Got.size(), 64u);
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(Got[static_cast<std::size_t>(I)], I);
  EXPECT_TRUE(M.empty());

  // The chain persists after the drain; a second burst reuses it.
  for (auto &I : Items)
    M.post(*I);
  EXPECT_EQ(M.size(), 64u);
  Got.clear();
  M.drain([&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
  EXPECT_EQ(Got.size(), 64u);
  EXPECT_TRUE(M.empty());
}

// Hammer the chain-install CAS: many producers racing into a tiny primary
// ring force concurrent overflow while a consumer drains. Nothing may be
// lost or duplicated, and the overflow must have chained at least one ring.
TEST(MailboxTest, ChainedOverflowStressConservesItems) {
  constexpr int Producers = 4;
  constexpr int PerProducer = 8000;
  RemoteMailbox M(8);
  auto Items = makeItems(Producers * PerProducer);

  std::vector<std::thread> Threads;
  std::atomic<bool> Overflowed{false};
  for (int P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      for (int I = 0; I != PerProducer; ++I)
        if (!M.post(*Items[static_cast<std::size_t>(P * PerProducer + I)]))
          Overflowed.store(true, std::memory_order_relaxed);
    });

  std::vector<int> Got;
  Got.reserve(Items.size());
  while (Got.size() != Items.size()) {
    M.drain(
        [&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
    std::this_thread::yield();
  }
  for (auto &T : Threads)
    T.join();
  EXPECT_TRUE(M.empty());
  // The chain path must have run (post() returning false), but the chain
  // itself may already have been shrunk away by the quiescent detach.
  EXPECT_TRUE(Overflowed.load()) << "burst never overflowed the primary ring";

  std::sort(Got.begin(), Got.end());
  for (std::size_t I = 0; I != Got.size(); ++I)
    ASSERT_EQ(Got[I], static_cast<int>(I)) << "duplicated or lost";
}

TEST(MailboxTest, EmptinessVisibleFromOtherThreads) {
  RemoteMailbox M;
  EXPECT_TRUE(M.empty());
  Item I(1);
  std::thread Producer([&] { M.post(I); });
  Producer.join();
  EXPECT_FALSE(M.empty()); // the post happened-before the join
  M.drain([](Schedulable &) {});
  EXPECT_TRUE(M.empty());
}

// Multi-producer conservation through a deliberately tiny ring, so the
// overflow path runs concurrently with ring posts and drains.
TEST(MailboxTest, MpscStressConservesItems) {
  constexpr int Producers = 3;
  constexpr int PerProducer = 5000;
  RemoteMailbox M(16);
  auto Items = makeItems(Producers * PerProducer);

  std::vector<std::thread> Threads;
  for (int P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      for (int I = 0; I != PerProducer; ++I)
        M.post(*Items[static_cast<std::size_t>(P * PerProducer + I)]);
    });

  std::vector<int> Got;
  Got.reserve(Items.size());
  while (Got.size() != Items.size()) {
    M.drain(
        [&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
    std::this_thread::yield();
  }
  for (auto &T : Threads)
    T.join();
  EXPECT_TRUE(M.empty());

  std::sort(Got.begin(), Got.end());
  for (std::size_t I = 0; I != Got.size(); ++I)
    ASSERT_EQ(Got[I], static_cast<int>(I)) << "duplicated or lost";
}

//===----------------------------------------------------------------------===//
// RemoteMailbox quiescent shrink
//===----------------------------------------------------------------------===//

TEST(MailboxTest, QuiescentChainShrinksAndConservesAcrossRegrowth) {
  RemoteMailbox M(8);
  auto Items = makeItems(64);
  for (auto &I : Items)
    M.post(*I);
  EXPECT_GE(M.ringCount(), 2u);

  std::vector<int> Got;
  M.drain([&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
  ASSERT_EQ(Got.size(), 64u);

  // Hysteresis: the chain survives the first empty drains, so a steady
  // overflow load does not thrash allocate/free.
  for (int I = 0; I != 3; ++I) {
    M.drain([](Schedulable &) {});
    EXPECT_GE(M.ringCount(), 2u) << "shrank before the quiescent threshold";
  }

  // Enough further empty drains detach the chain and then free it once
  // the slow-path population is provably quiescent.
  for (int I = 0; I != 16 && M.ringCount() != 1; ++I)
    M.drain([](Schedulable &) {});
  EXPECT_EQ(M.ringCount(), 1u);
  EXPECT_EQ(M.retiredRingCount(), 0u);
  EXPECT_TRUE(M.empty());

  // A second burst regrows the chain and loses nothing.
  for (auto &I : Items)
    M.post(*I);
  EXPECT_GE(M.ringCount(), 2u);
  EXPECT_EQ(M.size(), 64u);
  Got.clear();
  M.drain([&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
  ASSERT_EQ(Got.size(), 64u);
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(Got[static_cast<std::size_t>(I)], I);
}

// Cross-thread observers (hasReadyWork's empty(), diagnostics' size()/
// ringCount()/retiredRingCount()) walk the overflow and retired chains
// while the owner cycles the full shrink protocol underneath them —
// regrow, detach, unpublish, free, hundreds of times. The ChainPins
// protocol must keep every ring an observer can reach alive until its
// walk finishes: under ASan/TSan this is the use-after-free regression
// for freeing retired rings while a reader still held a pointer.
TEST(MailboxTest, ObserversRaceShrinkWithoutTouchingFreedRings) {
  constexpr int Bursts = 300;
  RemoteMailbox M(8);
  auto Items = makeItems(64);

  std::atomic<bool> Stop{false};
  std::atomic<int> Running{0};
  std::atomic<std::size_t> Observed{0};
  std::vector<std::thread> Observers;
  for (int T = 0; T != 3; ++T)
    Observers.emplace_back([&] {
      Running.fetch_add(1, std::memory_order_relaxed);
      std::size_t Sink = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        Sink += M.empty() ? 1 : 0;
        Sink += M.size();
        Sink += M.ringCount();
        Sink += M.retiredRingCount();
        // Unpinned gap: with observers walking back-to-back, ChainPins
        // never samples zero and the owner's free phases would never
        // run — the race under test needs frees to actually happen.
        std::this_thread::yield();
      }
      // Publish the walks' results so they cannot be optimized out.
      Observed.fetch_add(Sink, std::memory_order_relaxed);
    });
  // Don't start churning until every observer is actually walking, or a
  // fast main loop finishes before the race it means to provoke begins.
  while (Running.load(std::memory_order_relaxed) != 3)
    std::this_thread::yield();

  std::size_t Delivered = 0;
  for (int B = 0; B != Bursts; ++B) {
    for (auto &I : Items)
      M.post(*I); // regrow the overflow chain
    // Enough empty drains to walk the whole protocol: hysteresis
    // (QuiescentDrains), detach, unpublish, then the quiescent free.
    for (int D = 0; D != 16; ++D)
      Delivered += M.drain([](Schedulable &) {});
  }
  Stop.store(true, std::memory_order_relaxed);
  for (auto &T : Observers)
    T.join();
  EXPECT_EQ(Delivered, static_cast<std::size_t>(Bursts) * 64u);
  EXPECT_TRUE(M.empty());
}

// Producers with deliberate traffic gaps force shrink cycles to interleave
// with live posting: detaches race straggler slow-path walks, freed chains
// regrow, and at the end everything must still be conserved — every item
// delivered exactly once, the mailbox back to a single ring.
TEST(MailboxTest, ShrinkUnderConcurrentProducersConservesItems) {
  constexpr int Producers = 3;
  constexpr int PerProducer = 4000;
  RemoteMailbox M(8);
  auto Items = makeItems(Producers * PerProducer);

  std::vector<std::thread> Threads;
  for (int P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      for (int I = 0; I != PerProducer; ++I) {
        M.post(*Items[static_cast<std::size_t>(P * PerProducer + I)]);
        if (I % 512 == 511) // gaps: give the owner quiescent streaks
          std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });

  std::vector<int> Got;
  Got.reserve(Items.size());
  while (Got.size() != Items.size()) {
    M.drain(
        [&](Schedulable &S) { Got.push_back(static_cast<Item &>(S).Value); });
    std::this_thread::yield();
  }
  for (auto &T : Threads)
    T.join();

  // Fully quiesced now: the drain loop must converge back to one ring.
  for (int I = 0; I != 32 && M.ringCount() != 1; ++I)
    M.drain([](Schedulable &) {});
  EXPECT_EQ(M.ringCount(), 1u);
  EXPECT_EQ(M.retiredRingCount(), 0u);
  EXPECT_TRUE(M.empty());

  std::sort(Got.begin(), Got.end());
  for (std::size_t I = 0; I != Got.size(); ++I)
    ASSERT_EQ(Got[I], static_cast<int>(I)) << "duplicated or lost across shrink";
}

//===----------------------------------------------------------------------===//
// End-to-end: remote enqueues wake parked VPs (no lost wakeups)
//===----------------------------------------------------------------------===//

// Forks arrive from outside the machine (this test thread has no VP), so
// every enqueue takes the mailbox path; the sleeps between forks let the
// single PP park on the machine eventcount each round. A lost wakeup
// would hang the join (the PP has a 1ms nap backstop, so in practice a
// regression shows up as this test timing out only when the backstop is
// also broken — the counter assertions below catch the softer failure
// where the fast path silently stops being exercised).
TEST(MailboxWakeupTest, RemoteEnqueueWakesParkedVp) {
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  for (int I = 0; I != 20; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Vm.run([]() -> AnyValue { return {}; });
  }
  auto S = Vm.aggregateStats();
  EXPECT_GT(S.MailboxPosts, 0u) << "external forks must take the mailbox";
  EXPECT_GT(S.MailboxDrains, 0u);
  EXPECT_GT(S.VpParks, 0u) << "the VP should have idled between forks";
  EXPECT_GT(S.VpUnparks, 0u) << "each fork should end an idle episode";
  EXPECT_EQ(S.Enqueues, S.Dequeues) << "accounting must balance at quiesce";
}

} // namespace
