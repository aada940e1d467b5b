//===- core/ThreadGroup.h - Thread groups -----------------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread groups (paper section 3.1): "STING also provides thread groups as
/// a means of gaining control over a related collection of threads. ...
/// Every thread has a thread group identifier that associates it with a
/// given group. Thread groups provide operations analogous to ordinary
/// thread operations as well as operations for debugging and monitoring."
///
/// A child thread joins its creator's group by default, so terminating a
/// thread's subtree is `kill-group(T.group())` — exactly the paper's idiom.
///
/// Members are sharded by the VP that created them: each shard has its own
/// lock, member list and creation count on its own cache line, so forks
/// and exits on different VPs never touch the same group word (a user
/// group's reference count aside: members of a machine's root group hold
/// no reference, see Thread::group()). Whole-group operations walk every
/// shard.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_THREADGROUP_H
#define STING_CORE_THREADGROUP_H

#include "core/Thread.h"
#include "support/IntrusiveList.h"
#include "support/IntrusivePtr.h"
#include "support/SpinLock.h"

#include <cstdint>
#include <vector>

namespace sting {

class ThreadGroup;
using ThreadGroupRef = IntrusivePtr<ThreadGroup>;

/// Registry hook: every live group is enumerable (the paper's "listing
/// all groups" monitoring operation).
struct GroupRegistryTag;

/// A first-class collection of related threads.
class ThreadGroup final : public RefCounted<ThreadGroup>,
                          public ListNode<GroupRegistryTag> {
public:
  /// Creates a fresh group. \p Parent links groups into a hierarchy for
  /// monitoring; it imposes no lifecycle coupling.
  static ThreadGroupRef create(ThreadGroup *Parent = nullptr);

  std::uint64_t id() const { return Id; }
  ThreadGroup *parent() const { return Parent.get(); }

  /// Number of live (undetermined) member threads.
  std::size_t liveCount() const;

  /// Total threads ever added; a profiling counter (the paper's genealogy
  /// monitoring hooks).
  std::uint64_t totalCreated() const;

  /// Snapshot of the live members. References keep the threads alive even
  /// if they determine concurrently.
  std::vector<ThreadRef> threads() const;

  /// The paper's kill-group: requests termination of every live member.
  /// Threads observe the request at their next thread-controller call; the
  /// group may still have live members when this returns.
  void terminateAll();

  /// Requests suspension of every live member (honored at the members'
  /// next controller call).
  void suspendAll();

  /// Resumes every suspended member.
  void resumeAll();

  /// Snapshot of every live group in the process — the paper's "listing
  /// all groups" debugging operation. References keep them alive.
  static std::vector<ThreadGroupRef> allGroups();

private:
  friend class RefCounted<ThreadGroup>;
  friend class Thread;

  explicit ThreadGroup(ThreadGroup *Parent);
  ~ThreadGroup();

  /// Adds \p T to the shard of the calling VP (shard 0 off-VP) and
  /// records the shard in \p T for removeMember.
  void addMember(Thread &T);
  void removeMember(Thread &T);

  static constexpr unsigned NumShards = 16;
  struct alignas(64) Shard {
    SpinLock Lock;
    IntrusiveList<Thread, GroupMemberTag> Members;
    std::uint64_t Created = 0; ///< guarded by Lock
  };

  std::uint64_t Id;
  ThreadGroupRef Parent;
  mutable Shard Shards[NumShards];
};

} // namespace sting

#endif // STING_CORE_THREADGROUP_H
