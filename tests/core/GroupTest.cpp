//===- tests/core/GroupTest.cpp - Thread groups ------------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadGroup.h"

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <sched.h>
#include <set>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

TEST(GroupTest, ChildrenJoinCreatorsGroupByDefault) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadGroup *Mine = currentThread()->group();
    ThreadRef Child = TC::forkThread([]() -> AnyValue { return AnyValue(); });
    bool Same = Child->group() == Mine;
    TC::threadWait(*Child);
    return AnyValue(Same);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(GroupTest, ForksLeaveTheRootGroupCountAlone) {
  // The machine owns its root group; members take no reference on it, so
  // forks on every VP write no shared group word.
  constexpr int Forks = 1000;
  VirtualMachine Vm(VmConfig{.NumVps = 4, .NumPps = 2});
  ThreadGroup &Root = Vm.rootGroup();
  const std::uint32_t Before = Root.refCount();
  std::atomic<std::uint32_t> Seen{Before};
  Vm.run([&]() -> AnyValue {
    std::vector<ThreadRef> Forkers;
    for (unsigned V = 0; V != Vm.numVps(); ++V) {
      SpawnOptions Opts;
      Opts.Vp = &Vm.vp(V);
      Opts.Stealable = false; // fork on VP V, not on the toucher
      Forkers.push_back(TC::forkThread(
          [&]() -> AnyValue {
            std::vector<ThreadRef> Children;
            for (int I = 0; I != Forks; ++I)
              Children.push_back(
                  TC::forkThread([]() -> AnyValue { return AnyValue(); }));
            // Every child is alive here, a member of the root group.
            std::uint32_t Now = Root.refCount();
            if (Now != Before)
              Seen.store(Now);
            for (ThreadRef &C : Children)
              TC::threadWait(*C);
            return AnyValue(currentThread()->group() == &Root);
          },
          Opts));
    }
    for (ThreadRef &F : Forkers)
      EXPECT_TRUE(TC::threadValue(*F).as<bool>());
    return AnyValue();
  });
  EXPECT_EQ(Seen.load(), Before);
  EXPECT_EQ(Root.refCount(), Before);
  EXPECT_EQ(Root.totalCreated(),
            1u + Vm.numVps() * (1u + static_cast<unsigned>(Forks)));
}

TEST(GroupTest, UserGroupOutlivesItsLastRefWhileItHasMembers) {
  VirtualMachine Vm;
  std::atomic<bool> Release{false};
  ThreadGroup *Raw = nullptr;
  ThreadRef Member;
  {
    ThreadGroupRef G = ThreadGroup::create();
    Raw = G.get();
    SpawnOptions Opts;
    Opts.Group = G.get();
    Opts.Stealable = false;
    Member = Vm.fork(
        [&]() -> AnyValue {
          while (!Release.load())
            sched_yield();
          return AnyValue(5);
        },
        Opts);
  } // the creator's last ThreadGroupRef
  EXPECT_EQ(Member->group(), Raw);
  EXPECT_EQ(Raw->liveCount(), 1u);
  std::vector<ThreadGroupRef> All = ThreadGroup::allGroups();
  EXPECT_NE(std::find(All.begin(), All.end(), ThreadGroupRef(Raw)),
            All.end());
  All.clear();
  Release.store(true);
  Member->join();
  EXPECT_EQ(Member->result().as<int>(), 5);
}

TEST(GroupTest, ExplicitGroupOverridesInheritance) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadGroupRef Fresh = ThreadGroup::create(currentThread()->group());
    SpawnOptions Opts;
    Opts.Group = Fresh.get();
    ThreadRef Child = TC::forkThread(
        []() -> AnyValue { return AnyValue(); }, Opts);
    bool InFresh = Child->group() == Fresh.get();
    bool ParentLinked = Fresh->parent() == currentThread()->group();
    TC::threadWait(*Child);
    return AnyValue(InFresh && ParentLinked);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(GroupTest, LiveCountTracksMembership) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadGroupRef G = ThreadGroup::create();
    SpawnOptions Opts;
    Opts.Group = G.get();
    std::atomic<bool> Release{false};
    std::vector<ThreadRef> Members;
    for (int I = 0; I != 4; ++I)
      Members.push_back(TC::forkThread(
          [&Release]() -> AnyValue {
            while (!Release.load())
              TC::yieldProcessor();
            return AnyValue();
          },
          Opts));
    std::size_t During = G->liveCount();
    Release.store(true);
    for (auto &M : Members)
      TC::threadWait(*M);
    std::size_t After = G->liveCount();
    return AnyValue(During == 4 && After == 0);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(GroupTest, KillGroupTerminatesSubtree) {
  // The paper's idiom: "(kill-group (thread.group T))" terminates T's
  // children, which join T's group by default.
  VirtualMachine Vm(VmConfig{.EnablePreemption = true});
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadGroupRef G = ThreadGroup::create();
    SpawnOptions Opts;
    Opts.Group = G.get();
    std::vector<ThreadRef> Spinners;
    for (int I = 0; I != 4; ++I)
      Spinners.push_back(TC::forkThread(
          []() -> AnyValue {
            for (;;)
              TC::checkpoint();
          },
          Opts));
    G->terminateAll();
    for (auto &S : Spinners)
      TC::threadWait(*S);
    bool AllTerminated = true;
    for (auto &S : Spinners)
      AllTerminated &= S->wasTerminated();
    return AnyValue(AllTerminated && G->liveCount() == 0);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(GroupTest, TotalCreatedCounts) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadGroupRef G = ThreadGroup::create();
    SpawnOptions Opts;
    Opts.Group = G.get();
    for (int I = 0; I != 3; ++I)
      TC::threadWait(*TC::forkThread(
          []() -> AnyValue { return AnyValue(); }, Opts));
    return AnyValue(G->totalCreated());
  });
  EXPECT_EQ(V.as<std::uint64_t>(), 3u);
}

TEST(GroupTest, DroppedDelayedThreadLeavesItsGroup) {
  // A delayed thread that is never demanded, stolen or terminated never
  // determines; dropping it must still take it out of its group.
  VirtualMachine Vm;
  ThreadGroupRef G = ThreadGroup::create();
  SpawnOptions Opts;
  Opts.Group = G.get();
  ThreadRef T = Vm.createThread([]() -> AnyValue { return AnyValue(); }, Opts);
  EXPECT_EQ(G->liveCount(), 1u);
  T.reset();
  EXPECT_EQ(G->liveCount(), 0u);
  EXPECT_TRUE(G->threads().empty());
  EXPECT_EQ(G->totalCreated(), 1u);
}

TEST(GroupTest, MembersForkedOnEveryVpAreListed) {
  // Members are kept per creating VP; every group operation must still see
  // the whole group, including members forked from outside the machine.
  constexpr unsigned NumVps = 4;
  constexpr int PerCreator = 8;
  constexpr std::size_t Total = (NumVps + 1) * PerCreator;
  VirtualMachine Vm(VmConfig{.NumVps = NumVps, .NumPps = 2});
  ThreadGroupRef G = ThreadGroup::create();
  SpawnOptions MemberOpts;
  MemberOpts.Group = G.get();
  auto Spin = []() -> AnyValue {
    for (;;)
      TC::yieldProcessor();
  };

  // Each forker hands its members over in its own slot, not in its result:
  // a member's parent is its forker, so a result holding the members would
  // form a reference cycle.
  std::vector<std::vector<ThreadRef>> Forked(NumVps);
  std::vector<ThreadRef> Forkers;
  for (unsigned I = 0; I != NumVps; ++I) {
    SpawnOptions Opts;
    Opts.Vp = &Vm.vp(I);
    Forkers.push_back(Vm.fork(
        [&, I]() -> AnyValue {
          bool OnOwnVp = true;
          for (int K = 0; K != PerCreator; ++K) {
            OnOwnVp &= currentVp()->index() == I;
            Forked[I].push_back(TC::forkThread(Spin, MemberOpts));
          }
          return AnyValue(OnOwnVp);
        },
        Opts));
  }
  std::vector<ThreadRef> Members;
  for (int K = 0; K != PerCreator; ++K)
    Members.push_back(Vm.fork(Spin, MemberOpts));
  for (unsigned I = 0; I != NumVps; ++I) {
    Forkers[I]->join();
    EXPECT_TRUE(Forkers[I]->valueAs<bool>()) << "forker " << I
                                             << " left its VP";
    Members.insert(Members.end(), Forked[I].begin(), Forked[I].end());
  }
  ASSERT_EQ(Members.size(), Total);

  EXPECT_EQ(G->liveCount(), Total);
  EXPECT_EQ(G->totalCreated(), Total);
  std::vector<ThreadRef> Listed = G->threads();
  std::set<Thread *> ListedSet;
  for (const ThreadRef &T : Listed)
    ListedSet.insert(T.get());
  EXPECT_EQ(Listed.size(), Total);
  for (const ThreadRef &T : Members)
    EXPECT_EQ(ListedSet.count(T.get()), 1u) << "thread " << T->id();
  Listed.clear();

  G->terminateAll();
  for (ThreadRef &T : Members) {
    T->join();
    EXPECT_TRUE(T->wasTerminated()) << "thread " << T->id();
  }
  EXPECT_EQ(G->liveCount(), 0u);
  EXPECT_TRUE(G->threads().empty());
  EXPECT_EQ(G->totalCreated(), Total);
}

TEST(GroupTest, ThreadsSnapshotHoldsReferences) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadGroupRef G = ThreadGroup::create();
    SpawnOptions Opts;
    Opts.Group = G.get();
    std::atomic<bool> Release{false};
    ThreadRef T = TC::forkThread(
        [&Release]() -> AnyValue {
          while (!Release.load())
            TC::yieldProcessor();
          return AnyValue(31);
        },
        Opts);
    auto Snapshot = G->threads();
    bool Contains = Snapshot.size() == 1 && Snapshot[0] == T;
    Release.store(true);
    TC::threadWait(*T);
    return AnyValue(Contains);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(GroupTest, SuspendAndResumeGroup) {
  VirtualMachine Vm(VmConfig{.EnablePreemption = true});
  AnyValue V = Vm.run([]() -> AnyValue {
    ThreadGroupRef G = ThreadGroup::create();
    SpawnOptions Opts;
    Opts.Group = G.get();
    std::atomic<int> Progress{0};
    std::atomic<bool> Stop{false};
    std::vector<ThreadRef> Members;
    for (int I = 0; I != 2; ++I)
      Members.push_back(TC::forkThread(
          [&]() -> AnyValue {
            while (!Stop.load()) {
              Progress.fetch_add(1);
              TC::checkpoint();
            }
            return AnyValue();
          },
          Opts));
    // Let them run, suspend the group, and check progress stalls.
    while (Progress.load() < 100)
      TC::yieldProcessor();
    G->suspendAll();
    for (int I = 0; I != 50; ++I)
      TC::yieldProcessor();
    int Frozen = Progress.load();
    for (int I = 0; I != 200; ++I)
      TC::yieldProcessor();
    int StillFrozen = Progress.load();
    Stop.store(true);
    G->resumeAll();
    for (auto &M : Members) {
      while (!M->isDetermined()) {
        TC::threadRun(*M);
        TC::yieldProcessor();
      }
    }
    // Allow a small slop: a member may take one step between request and
    // its next controller call.
    return AnyValue(StillFrozen - Frozen <= 2);
  });
  EXPECT_TRUE(V.as<bool>());
}

} // namespace
