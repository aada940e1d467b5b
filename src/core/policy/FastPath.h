//===- core/policy/FastPath.h - Shared lock-free policy plumbing -*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The owner/remote split shared by the deque-backed policies (local FIFO,
/// local LIFO, steal-half): an enqueue performed *by the VP that owns the
/// queue* goes straight to the Chase-Lev deque; everything else — unparks
/// from sibling VPs, the preemption clock, off-machine callers — posts to
/// the owner's MPSC mailbox, which the owner drains at the top of every
/// dispatch. See DESIGN.md section 8 for the full protocol.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_POLICY_FASTPATH_H
#define STING_CORE_POLICY_FASTPATH_H

#include "core/Current.h"
#include "core/VirtualProcessor.h"
#include "core/policy/RemoteMailbox.h"
#include "core/policy/WorkStealingDeque.h"

#include <cstdint>

namespace sting::fastpath {

/// True when the calling thread is dispatching for \p Vp — the only case
/// allowed to touch the owner end of \p Vp's deque. A policy instance is
/// owned by exactly one VP, and every PolicyManager entry point receives
/// that VP, so this is the complete owner test.
inline bool onOwner(const VirtualProcessor &Vp) { return currentVp() == &Vp; }

/// Remote-enqueue path: posts \p Item to \p Vp's mailbox and counts the
/// post on the posting VP, or on the target for posters outside any VP
/// (the same attribution as Enqueues). The caller's reference to a Thread
/// item transfers to the mailbox exactly as it would to a ready queue.
inline void postRemote(RemoteMailbox &Mailbox, Schedulable &Item,
                       VirtualProcessor &Vp, EnqueueReason Reason) {
  // Read the id before publishing: once the item is visible the owner may
  // drain, dispatch and recycle it concurrently.
  const std::uint64_t TraceId = Item.schedThreadId();
  const bool Ring = Mailbox.post(Item);
  if (VirtualProcessor *Cur = currentVp())
    Cur->stats().MailboxPosts.inc();
  else
    Vp.stats().MailboxPosts.incShared();
  STING_TRACE_EVENT(MailboxPost, TraceId,
                    obs::mailboxPostPayload(Vp.index(), Ring));
  STING_TRACE_EVENT(Enqueue, TraceId,
                    obs::enqueuePayload(Mailbox.size(),
                                        static_cast<std::uint8_t>(Reason)));
}

/// Owner-side drain: moves every published mailbox item into the owner's
/// structures via \p Consume and charges the drain counters. Costs three
/// uncontended loads when the mailbox is empty (the common case).
template <typename Fn>
inline void drainMailbox(RemoteMailbox &Mailbox, VirtualProcessor &Vp,
                         Fn &&Consume) {
  if (Mailbox.empty())
    return;
  std::size_t N = Mailbox.drain(static_cast<Fn &&>(Consume));
  if (N == 0)
    return;
  Vp.stats().MailboxDrains.add(N);
  STING_TRACE_EVENT(MailboxDrain, 0,
                    N > 0xffffffff ? 0xffffffffu
                                   : static_cast<std::uint32_t>(N));
}

/// The whole fast path as one value: a Chase-Lev deque plus a remote
/// mailbox plus the owner test. The local FIFO and LIFO policies are each
/// one FastPathQueue, and out-of-tree policy managers can embed one to get
/// the lock-free protocol without re-deriving it (steal-half composes the
/// pieces directly because it routes drained TCBs to a private queue).
///
/// Usage, from each PolicyManager entry point:
///
///   void enqueueThread(Schedulable &S, VirtualProcessor &Vp,
///                      EnqueueReason R) override { Q.enqueue(S, Vp, R); }
///   Schedulable *getNextThread(VirtualProcessor &Vp) override {
///     return Q.dequeue(Vp);
///   }
///   bool hasReadyWork(const VirtualProcessor &) const override {
///     return Q.hasReadyWork();
///   }
///   void drain(VirtualProcessor &Vp, const Drop &D) override {
///     Q.drainAll(Vp, D);
///   }
///
/// stealFresh() is the victim end for cross-instance work stealing.
class FastPathQueue {
public:
  /// Routes by ownership: the owner pushes straight onto the deque
  /// bottom, everyone else posts to the mailbox (with the standard
  /// counters and trace events on both paths).
  void enqueue(Schedulable &Item, VirtualProcessor &Vp,
               EnqueueReason Reason) {
    if (!onOwner(Vp))
      return postRemote(Mailbox, Item, Vp, Reason);
    // Read the id before publishing: once the item is visible in the deque
    // a thief may pop, dispatch and recycle it concurrently.
    const std::uint64_t TraceId = Item.schedThreadId();
    Deque.pushBottom(Item);
    STING_TRACE_EVENT(Enqueue, TraceId,
                      obs::enqueuePayload(Deque.size(),
                                          static_cast<std::uint8_t>(Reason)));
  }

  /// Owner-side dispatch: drains the mailbox into the deque, then takes
  /// from the top (FIFO order across both paths — mailbox items entered
  /// the machine at their post time, so they join at the bottom).
  Schedulable *dequeue(VirtualProcessor &Vp) {
    drainToDeque(Vp);
    return Deque.takeTop();
  }

  /// LIFO dispatch: drains the mailbox into the deque, then pops the
  /// bottom, so remote posts slot in as if freshly pushed and the newest
  /// runnable work (local or remote) runs next.
  Schedulable *dequeueNewest(VirtualProcessor &Vp) {
    drainToDeque(Vp);
    return Deque.popBottom();
  }

  /// Readable from any thread (idle PPs, the watchdog).
  bool hasReadyWork() const { return !Deque.empty() || !Mailbox.empty(); }

  /// Sampler depths: deque items and undrained mailbox posts.
  void loadDepths(std::uint64_t &ReadyDepth,
                  std::uint64_t &MailboxDepth) const {
    ReadyDepth = Deque.size();
    MailboxDepth = Mailbox.size();
  }

  /// Victim end for idle siblings: the top element if it is an unstarted
  /// thread that the thief's previous probe (\p Seen) already found there.
  /// See WorkStealingDeque::stealFresh.
  WorkStealingDeque::StealResult stealFresh(Schedulable *&Out,
                                            std::int64_t &Seen) {
    return Deque.stealFresh(Out, Seen);
  }

  /// Shutdown drain (runs single-threaded after the PPs have joined).
  template <typename Fn> void drainAll(VirtualProcessor &, Fn &&Drop) {
    Mailbox.drain(Drop);
    while (Schedulable *Item = Deque.takeTop())
      Drop(*Item);
  }

private:
  void drainToDeque(VirtualProcessor &Vp) {
    drainMailbox(Mailbox, Vp,
                 [this](Schedulable &Item) { Deque.pushBottom(Item); });
  }

  WorkStealingDeque Deque;
  RemoteMailbox Mailbox;
};

} // namespace sting::fastpath

#endif // STING_CORE_POLICY_FASTPATH_H
