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
/// Records sit in per-VP *lanes*: a waiter registers in the lane of the VP
/// it runs on (VP index % 16), and registrations made off a VP, detached
/// proxies included, share one extra lane. A producer walks its own lane
/// first, FIFO, and then the other occupied lanes in rotation, so a
/// payload goes to a compatible waiter parked on the producer's own VP
/// when there is one, and its record, slot and later run stay on that
/// core. That waiter runs once its producer blocks, yields or is
/// preempted; since a served waiter leaves its lane, a producer that
/// never yields holds back at most one payload per waiter parked on its
/// own VP, and waiters in other lanes are still served (DESIGN.md §12.1).
/// Each lane is one pointer to a circular doubly-linked ring with no
/// sentinel, and a 32-bit mask marks the occupied ones, so the whole list
/// is 144 bytes and its first lanes share a line with whatever precedes it.
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
#include "core/VirtualProcessor.h"
#include "support/Debug.h"

#include <atomic>
#include <bit>
#include <cstdint>

namespace sting {

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
class HandoffWaiterBase {
public:
  HandoffWaiterBase() = default;
  HandoffWaiterBase(const HandoffWaiterBase &) = delete;
  HandoffWaiterBase &operator=(const HandoffWaiterBase &) = delete;

  HandoffState state() const { return St; }
  /// True while the registration is armed (linked into its lane).
  bool isLinked() const { return Next != nullptr; }
  /// The lane of the record's latest registration; it outlives the unlink.
  unsigned lane() const { return Lane; }

private:
  template <typename> friend class HandoffList;

  HandoffWaiterBase *Prev = nullptr;
  HandoffWaiterBase *Next = nullptr;
  /// The owner of the TCB that parks on this registration, bound at
  /// enqueue and pinned while linked. Inside a stolen thunk that is the
  /// stealer, not the stolen thread, as for every other waiter kind.
  Thread *Self = nullptr;
  HandoffState St = HandoffState::Armed;
  std::uint8_t Lane = 0;
};

/// Registered waiter records in per-VP lanes. Every member except
/// hasWaiters(), callerLane() and wake() requires the caller to hold the
/// lock that guards this list (documented contract; the list itself is
/// lock-free storage).
template <typename WaiterT> class HandoffList {
  /// Lanes 0-15 hold waiters registered on VP i % 16, matching the other
  /// 16-slot per-VP tables; lane 16 holds off-VP and detached ones.
  static constexpr unsigned NumVpLanes = 16;
  static constexpr unsigned OffVpLane = NumVpLanes;

public:
  HandoffList() = default;
  HandoffList(const HandoffList &) = delete;
  HandoffList &operator=(const HandoffList &) = delete;
  ~HandoffList() { STING_DCHECK(!hasWaiters(), "destroying armed waiters"); }

  /// The lane the calling thread registers in and visits first.
  static unsigned callerLane() {
    VirtualProcessor *Vp = currentVp();
    return Vp ? Vp->index() % NumVpLanes : OffVpLane;
  }

  /// Registers \p W (re-arming it) at the tail of the caller's lane.
  void enqueue(WaiterT &W) {
    W.Self = currentTcb()->thread();
    link(W, callerLane());
  }

  /// Registers \p W without binding it to the calling thread: deliver() and
  /// nudge() then return a null ThreadRef, which wake() ignores. Used for
  /// registration *proxies* — records owned by a service on behalf of a
  /// remote waiter, where no local thread ever parks on the registration
  /// and completion is observed by whoever owns the record instead.
  void enqueueDetached(WaiterT &W) {
    W.Self = nullptr;
    link(W, OffVpLane);
  }

  /// Walks the registered waiters: the caller's lane first, then the other
  /// occupied lanes in rotation, FIFO within each. \p V may deliver() or
  /// nudge() the record it is handed (both unlink); return false to stop.
  template <typename Visit> void visit(Visit V) {
    const std::uint32_t Occupied = Mask.load(std::memory_order_relaxed);
    const std::uint32_t Before = (1u << callerLane()) - 1;
    if (visitLanes(Occupied & ~Before, V))
      visitLanes(Occupied & Before, V);
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

  /// Racy "any lane occupied", readable without the lock. Producers use it
  /// to skip locking a foreign bin with no waiters: a waiter registering
  /// concurrently re-scans *after* enqueuing, so storage published before
  /// this read is never missed (the structure's lock carries the
  /// happens-before).
  bool hasWaiters() const {
    return Mask.load(std::memory_order_relaxed) != 0;
  }

  /// Unparks a thread captured by deliver()/nudge(); call without locks.
  static void wake(const ThreadRef &T) {
    if (T)
      ThreadController::unparkThreadKernel(*T, EnqueueReason::KernelBlock);
  }

private:
  /// Visits the lanes set in \p Lanes in index order; false once \p V
  /// stops the walk.
  template <typename Visit> bool visitLanes(std::uint32_t Lanes, Visit &V) {
    for (; Lanes; Lanes &= Lanes - 1) {
      HandoffWaiterBase *const *Head = &Heads[std::countr_zero(Lanes)];
      for (HandoffWaiterBase *W = *Head; W;) {
        HandoffWaiterBase *Next = W->Next; // read first: V may unlink W
        const bool Last = Next == *Head;
        if (!V(static_cast<WaiterT &>(*W)))
          return false;
        W = Last ? nullptr : Next;
      }
    }
    return true;
  }

  void link(HandoffWaiterBase &W, unsigned Lane) {
    STING_DCHECK(!W.isLinked(), "registering an armed waiter");
    W.St = HandoffState::Armed;
    W.Lane = static_cast<std::uint8_t>(Lane);
    HandoffWaiterBase *&Head = Heads[Lane];
    if (!(Mask.load(std::memory_order_relaxed) & (1u << Lane))) {
      W.Prev = W.Next = &W;
      Head = &W;
      Mask.store(Mask.load(std::memory_order_relaxed) | (1u << Lane),
                 std::memory_order_relaxed);
      return;
    }
    W.Prev = Head->Prev;
    W.Next = Head;
    Head->Prev->Next = &W;
    Head->Prev = &W;
  }

  void unlink(HandoffWaiterBase &W) {
    HandoffWaiterBase *&Head = Heads[W.Lane];
    if (W.Next == &W) {
      Mask.store(Mask.load(std::memory_order_relaxed) & ~(1u << W.Lane),
                 std::memory_order_relaxed);
    } else {
      W.Prev->Next = W.Next;
      W.Next->Prev = W.Prev;
      if (Head == &W)
        Head = W.Next;
    }
    W.Prev = W.Next = nullptr;
  }

  ThreadRef complete(WaiterT &W, HandoffState S) {
    unlink(W);
    W.St = S;
    return ThreadRef(W.Self);
  }

  /// Bit i set while lane i is non-empty.
  std::atomic<std::uint32_t> Mask{0};
  /// Lane i's oldest record, meaningful only while bit i of Mask is set.
  /// Left uninitialized on purpose: zeroing 136 bytes in each of a space's
  /// 65 bins made creating a space about 1.7x slower (fig6_baseline
  /// BM_TupleSpace), and an empty lane's head is never read.
  HandoffWaiterBase *Heads[NumVpLanes + 1];
};

} // namespace sting

#endif // STING_SYNC_HANDOFFLIST_H
