//===- core/ThreadGroup.cpp - Thread groups --------------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadGroup.h"

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualProcessor.h"

#include <atomic>

namespace sting {

static std::atomic<std::uint64_t> NextGroupId{1};

/// Process-wide registry of live groups ("listing all groups").
namespace {
struct GroupRegistry {
  SpinLock Lock;
  IntrusiveList<ThreadGroup, GroupRegistryTag> Groups;
};
GroupRegistry &registry() {
  static GroupRegistry R;
  return R;
}
} // namespace

ThreadGroup::ThreadGroup(ThreadGroup *Parent)
    : Id(NextGroupId.fetch_add(1, std::memory_order_relaxed)),
      Parent(Parent) {
  GroupRegistry &R = registry();
  std::lock_guard<SpinLock> Guard(R.Lock);
  R.Groups.pushBack(*this);
}

ThreadGroup::~ThreadGroup() {
  // Members hold a reference to a user group, and the machine destroys
  // its root group after its VPs, so a group dies only after every member
  // left.
  for ([[maybe_unused]] const Shard &S : Shards)
    STING_DCHECK(S.Members.empty(), "destroying a group with live members");
  GroupRegistry &R = registry();
  std::lock_guard<SpinLock> Guard(R.Lock);
  IntrusiveList<ThreadGroup, GroupRegistryTag>::erase(*this);
}

std::vector<ThreadGroupRef> ThreadGroup::allGroups() {
  GroupRegistry &R = registry();
  std::vector<ThreadGroupRef> Out;
  std::lock_guard<SpinLock> Guard(R.Lock);
  for (ThreadGroup &G : R.Groups) {
    // A group whose final release already committed is mid-destruction
    // (its destructor is blocked on our lock); skip it rather than
    // resurrect it.
    if (G.retainIfAlive())
      Out.push_back(ThreadGroupRef::adopt(&G));
  }
  return Out;
}

ThreadGroupRef ThreadGroup::create(ThreadGroup *Parent) {
  return ThreadGroupRef::adopt(new ThreadGroup(Parent));
}

void ThreadGroup::addMember(Thread &T) {
  VirtualProcessor *Vp = currentVp();
  T.GroupShard = static_cast<std::uint8_t>(Vp ? Vp->index() % NumShards : 0);
  Shard &S = Shards[T.GroupShard];
  std::lock_guard<SpinLock> Guard(S.Lock);
  ++S.Created;
  S.Members.pushBack(T);
}

void ThreadGroup::removeMember(Thread &T) {
  Shard &S = Shards[T.GroupShard];
  std::lock_guard<SpinLock> Guard(S.Lock);
  IntrusiveList<Thread, GroupMemberTag>::erase(T);
}

std::size_t ThreadGroup::liveCount() const {
  std::size_t N = 0;
  for (Shard &S : Shards) {
    std::lock_guard<SpinLock> Guard(S.Lock);
    N += S.Members.size();
  }
  return N;
}

std::uint64_t ThreadGroup::totalCreated() const {
  std::uint64_t N = 0;
  for (Shard &S : Shards) {
    std::lock_guard<SpinLock> Guard(S.Lock);
    N += S.Created;
  }
  return N;
}

std::vector<ThreadRef> ThreadGroup::threads() const {
  std::vector<ThreadRef> Snapshot;
  for (Shard &S : Shards) {
    std::lock_guard<SpinLock> Guard(S.Lock);
    // A member whose last reference is gone is leaving from its
    // destructor, blocked on this lock; skip it rather than resurrect it.
    for (Thread &T : S.Members)
      if (T.retainIfAlive())
        Snapshot.push_back(ThreadRef::adopt(&T));
  }
  return Snapshot;
}

void ThreadGroup::terminateAll() {
  // Snapshot first: threadTerminate may determine members, which mutates
  // the member lists under their shard locks.
  for (const ThreadRef &T : threads())
    ThreadController::threadTerminate(*T);
}

void ThreadGroup::suspendAll() {
  for (const ThreadRef &T : threads())
    ThreadController::threadSuspend(*T, /*QuantumNanos=*/0);
}

void ThreadGroup::resumeAll() {
  for (const ThreadRef &T : threads())
    ThreadController::threadRun(*T);
}

} // namespace sting
