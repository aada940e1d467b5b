//===- sync/HandoffList.h - Registered waiters with direct handoff -*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ParkList's sibling for structures that can hand a producer's payload
/// straight to one blocked consumer instead of waking everyone to re-scan.
/// A waiter embeds a HandoffWaiterBase-derived record in its stack frame,
/// registers it under the structure's own lock, and parks; a producer
/// walks the registered records under that same lock, writes its payload
/// into a compatible waiter's slot, and wakes exactly that thread.
///
/// Unlike ParkList, the list keeps no lock of its own: every record field
/// and every list operation is guarded by the *caller's* lock — the one
/// already serializing the structure's storage — so registration, delivery
/// and unwind all observe one consistent state. The state machine per
/// registration:
///
///   Armed ──deliver()──▶ Delivered   (payload in the waiter's slot; the
///         │                           waiter leaves with it or, on
///         │                           timeout/cancel, re-deposits it)
///         └──nudge()────▶ Nudged     (a *potential* match arrived — e.g. a
///                                     tuple with live-thread fields that
///                                     cannot be matched under a spinlock;
///                                     the waiter re-scans)
///
/// Exactly one transition out of Armed ever happens: deliver/nudge unlink
/// the record under the lock, and the waiter's own exits (match-elsewhere,
/// timeout, cancellation unwind) go through finish(), which atomically
/// either retracts a still-armed registration or observes the final state
/// — so a payload is either still in storage or in exactly one waiter's
/// slot, never both and never neither.
///
/// Wakes happen outside the lock via the ThreadRef that deliver()/nudge()
/// return; unparkThreadKernel re-validates under the thread's waiter lock,
/// so a waiter that already resumed (timeout, chaos) absorbs the unpark as
/// a spurious return, which parkCurrent callers must tolerate anyway.
///
//===----------------------------------------------------------------------===//

#ifndef STING_SYNC_HANDOFFLIST_H
#define STING_SYNC_HANDOFFLIST_H

#include "core/Current.h"
#include "core/ThreadController.h"
#include "support/IntrusiveList.h"

#include <atomic>
#include <cstdint>

namespace sting {

struct HandoffWaiterTag;

/// Outcome of one registration episode, written by the waker under the
/// caller's lock.
enum class HandoffState : std::uint8_t {
  Armed,     ///< registered, nothing happened yet
  Delivered, ///< a producer transferred its payload into the waiter's slot
  Nudged,    ///< a potentially-matching deposit arrived; re-scan required
};

/// Base for stack-pinned waiter records. Derived types add the template
/// being waited for and the delivery slot. All fields are guarded by the
/// lock of the HandoffList the record is registered with.
class HandoffWaiterBase : public ListNode<HandoffWaiterTag> {
public:
  HandoffState state() const { return St; }

private:
  template <typename> friend class HandoffList;

  HandoffState St = HandoffState::Armed;
  /// The owner of the TCB that parks on this registration, bound at
  /// enqueue and pinned while linked. Inside a stolen thunk that is the
  /// stealer, not the stolen thread, as for every other waiter kind.
  Thread *Self = nullptr;
};

/// An intrusive list of registered waiter records. Every member except
/// count() and wake() requires the caller to hold the lock that guards
/// this list (documented contract; the list itself is lock-free storage).
template <typename WaiterT> class HandoffList {
  using List = IntrusiveList<HandoffWaiterBase, HandoffWaiterTag>;

public:
  /// Registers \p W (re-arming it) at the tail; FIFO delivery order.
  void enqueue(WaiterT &W) {
    W.St = HandoffState::Armed;
    W.Self = currentTcb()->thread();
    Waiters.pushBack(W);
    Registered.store(Registered.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }

  /// Registers \p W without binding it to the calling thread: deliver() and
  /// nudge() then return a null ThreadRef, which wake() ignores. Used for
  /// registration *proxies* — records owned by a service on behalf of a
  /// remote waiter, where no local thread ever parks on the registration
  /// and completion is observed by whoever owns the record instead.
  void enqueueDetached(WaiterT &W) {
    W.St = HandoffState::Armed;
    W.Self = nullptr;
    Waiters.pushBack(W);
    Registered.store(Registered.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }

  /// Walks the registered waiters in FIFO order. \p V may deliver() or
  /// nudge() the record it is handed (both unlink); return false to stop.
  template <typename Visit> void visit(Visit V) {
    for (auto It = Waiters.begin(); It != Waiters.end();) {
      WaiterT &W = static_cast<WaiterT &>(*It);
      ++It; // advance first: V may unlink W
      if (!V(W))
        return;
    }
  }

  /// Completes \p W's registration with a payload the caller already wrote
  /// into its slot. \returns the thread to wake (outside the lock).
  ThreadRef deliver(WaiterT &W) { return complete(W, HandoffState::Delivered); }

  /// Completes \p W's registration with "something arrived, re-scan".
  ThreadRef nudge(WaiterT &W) { return complete(W, HandoffState::Nudged); }

  /// The waiter's own exit: retracts a still-armed registration, or
  /// observes the final state a waker left. After this call the record is
  /// unlinked and the caller owns whatever its slot holds.
  HandoffState finish(WaiterT &W) {
    if (W.isLinked()) {
      unlink(W);
      return HandoffState::Armed;
    }
    return W.St;
  }

  /// Racy registration count, readable without the lock. Producers use it
  /// to skip locking a foreign bin whose waiter list is empty: a waiter
  /// registering concurrently re-scans *after* enqueuing, so storage
  /// published before this read is never missed (the structure's lock
  /// carries the happens-before).
  std::size_t count() const {
    return Registered.load(std::memory_order_relaxed);
  }

  /// Unparks a thread captured by deliver()/nudge(); call without locks.
  static void wake(const ThreadRef &T) {
    if (T)
      ThreadController::unparkThreadKernel(*T, EnqueueReason::KernelBlock);
  }

private:
  ThreadRef complete(WaiterT &W, HandoffState S) {
    unlink(W);
    W.St = S;
    return ThreadRef(W.Self);
  }

  void unlink(WaiterT &W) {
    List::erase(W);
    Registered.store(Registered.load(std::memory_order_relaxed) - 1,
                     std::memory_order_relaxed);
  }

  List Waiters;
  std::atomic<std::size_t> Registered{0};
};

} // namespace sting

#endif // STING_SYNC_HANDOFFLIST_H
