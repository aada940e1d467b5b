//===- core/PolicyManager.h - Customizable scheduling policies --*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's policy manager interface (section 3.3). Each virtual
/// processor is closed over its own PolicyManager; "different VPs in a
/// given virtual machine may implement different policies". The thread
/// controller is policy-agnostic: replacing a policy never requires
/// modifying the controller.
///
/// Mapping to the paper's operations:
///   pm-get-next-thread  -> getNextThread
///   pm-enqueue-thread   -> enqueueThread (EnqueueReason ~ the state arg)
///   pm-priority         -> priorityHint
///   pm-quantum          -> quantumHint
///   pm-allocate-vp      -> selectVpForNewThread
///   pm-vp-idle          -> vpIdle
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_POLICYMANAGER_H
#define STING_CORE_POLICYMANAGER_H

#include "core/Schedulable.h"

#include <cstdint>
#include <functional>
#include <memory>

namespace sting {

class VirtualMachine;
class VirtualProcessor;

/// The state in which an object is handed to enqueueThread — the paper's
/// "delayed, kernel-block, user-block, or suspended" argument, extended
/// with the new-thread and preemption cases a C++ API needs to spell out.
enum class EnqueueReason : std::uint8_t {
  NewThread,   ///< freshly scheduled thread (fork-thread / thread-run)
  Delayed,     ///< a delayed thread being scheduled (thread-run)
  KernelBlock, ///< resuming from a runtime-structure wait
  UserBlock,   ///< resuming from thread-block
  Suspended,   ///< resuming from thread-suspend
  Yielded,     ///< voluntary yield-processor
  Preempted,   ///< quantum expiry / preemption-clock request
};

/// Abstract scheduling and migration policy for one virtual processor.
///
/// Serialization is the policy's own affair (the fourth classification axis
/// in section 3.3): a policy with a purely VP-local queue may skip locking;
/// one exposing a migration interface or a shared global queue must lock.
///
/// Out-of-tree policies that want the built-ins' lock-free fast path
/// (Chase-Lev deque for owner enqueues + MPSC mailbox for remote ones, see
/// DESIGN.md section 8) can embed one fastpath::FastPathQueue
/// (core/policy/FastPath.h) per instance and forward the four mandatory
/// entry points to it, instead of re-deriving the ownership protocol —
/// the local FIFO and LIFO policies are built this way, and
/// examples/custom_policy.cpp shows a complete out-of-tree one.
class PolicyManager {
public:
  virtual ~PolicyManager();

  /// \returns the next ready item for \p Vp, or null if none. May return
  /// work migrated from other VPs. Callers must treat a returned Thread as
  /// a transferred reference (the queue's retain moves to the caller).
  virtual Schedulable *getNextThread(VirtualProcessor &Vp) = 0;

  /// Enqueues \p Item (a Thread or a Tcb) to run on \p Vp. The callee
  /// takes over the caller's reference for Threads.
  virtual void enqueueThread(Schedulable &Item, VirtualProcessor &Vp,
                             EnqueueReason Reason) = 0;

  /// \returns true if getNextThread would (probably) find work; used by
  /// physical processors to decide whether to sleep. May be approximate
  /// but must never report false when a locally enqueued item is pending.
  virtual bool hasReadyWork(const VirtualProcessor &Vp) const = 0;

  /// Occupancy probe for the load sampler (obs/Sampler.h): approximate
  /// counts of items waiting in this VP's ready structures.
  /// \p ReadyDepth counts owner-visible ready items, \p MailboxDepth
  /// counts posted-but-undrained remote enqueues. Must be callable from
  /// any thread; values may be racy, never torn. The default derives a
  /// 0/1 depth from hasReadyWork(); queue-backed policies override with
  /// real sizes.
  virtual void loadDepths(const VirtualProcessor &Vp,
                          std::uint64_t &ReadyDepth,
                          std::uint64_t &MailboxDepth) const;

  /// Hint: the currently running thread's priority changed (pm-priority).
  virtual void priorityHint(VirtualProcessor &Vp, int Priority);

  /// Hint: the currently running thread's quantum changed (pm-quantum).
  virtual void quantumHint(VirtualProcessor &Vp, std::uint64_t Nanos);

  /// Chooses a VP for \p T, a thread \p Creator is scheduling without an
  /// explicit SpawnOptions::Vp — initial load balancing (the paper's first
  /// decision point). \p T is Scheduled but not yet queued, so its
  /// attributes (stealable, priority, group) may steer the choice. Only the
  /// creator's own VP calls this. Default: the creating VP itself.
  virtual VirtualProcessor &selectVpForNewThread(VirtualProcessor &Creator,
                                                 const Thread &T);

  /// Called when \p Vp has no evaluating threads (pm-vp-idle). May migrate
  /// a thread from another VP and return it, "do bookkeeping", or return
  /// null to let the VP yield its physical processor.
  virtual Schedulable *vpIdle(VirtualProcessor &Vp);

  /// Drains the queue on shutdown, releasing thread references.
  /// \p DropItem receives every queued item.
  virtual void drain(VirtualProcessor &Vp,
                     const std::function<void(Schedulable &)> &DropItem) = 0;
};

/// Factory invoked once per VP at machine construction; policies needing
/// shared state (a global queue, steal sets) capture it in the factory.
using PolicyFactory = std::function<std::unique_ptr<PolicyManager>(
    VirtualMachine &Vm, unsigned VpIndex)>;

/// Built-in policies (see core/policy/*.cpp and DESIGN.md section 2):

/// Per-VP FIFO with round-robin semantics — the preemptive scheduler the
/// paper recommends for master/slave programs. Placement is lazy task
/// creation: a stealable thread stays on its creator's VP (an owner push,
/// no shared word), where a touch usually runs it inline; an idle sibling
/// takes it only after seeing it at the top of that VP's deque on two idle
/// probes in a row. Non-stealable threads are spread round-robin. The
/// machine default.
PolicyFactory makeLocalFifoPolicy();

/// Per-VP LIFO — the scheduler the paper recommends for tree-structured
/// result-parallel programs; maximizes stealing opportunities (4.1.1).
PolicyFactory makeLocalLifoPolicy();

/// One shared locked FIFO for the whole machine — the paper's global-queue
/// design for worker-farm programs (section 3.3).
PolicyFactory makeGlobalFifoPolicy();

/// Per-VP priority queue; larger Thread::priority runs first. Supports
/// speculative scheduling where "promising tasks can execute before
/// unlikely ones because priorities are programmable" (4.3).
PolicyFactory makePriorityPolicy();

/// Two-level queues: an unlocked VP-local queue for evaluating TCBs plus a
/// locked public queue that idle VPs steal half of — the lock-elision
/// design of section 3.3 combined with dynamic load balancing.
PolicyFactory makeStealHalfPolicy();

} // namespace sting

#endif // STING_CORE_POLICYMANAGER_H
