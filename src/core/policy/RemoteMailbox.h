//===- core/policy/RemoteMailbox.h - Per-VP remote enqueues -----*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An MPSC mailbox, one per VP, carrying cross-VP enqueues — unparks,
/// migrations, tuple-space wakeups, enqueues from off-machine threads and
/// the preemption clock. Remote producers never touch the owner's
/// Chase-Lev deque (which tolerates exactly one writer at the bottom);
/// they post here and the owner drains at dispatch.
///
/// The mailbox is one fixed ring plus a locked spill list, and allocates
/// nothing after construction (the thread controller "allocates no
/// storage", paper section 3.1). The ring is Vyukov's bounded MPMC queue
/// specialized to a single consumer: a producer claims a cell with one
/// CAS on Tail and publishes with one release store of the cell sequence;
/// the owner consumes with plain loads plus one release store per cell.
/// A post that finds the ring full — pathological fan-in to one VP, which
/// no measured workload reaches — links the item onto an intrusive spill
/// list under a spin lock. The hook is free: an item in a mailbox is on
/// no other ready list until the owner has drained it.
///
/// Emptiness is answered from the ring's Tail/Head cursors plus the spill
/// count, so hasReadyWork stays accurate from any thread: Tail is advanced
/// *before* the cell is published, hence a claimed-but-unpublished post
/// already reports non-empty (the no-lost-wakeup direction; the drain may
/// transiently see the unpublished cell and return short, but the VP's
/// physical processor re-polls instead of sleeping).
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_POLICY_REMOTEMAILBOX_H
#define STING_CORE_POLICY_REMOTEMAILBOX_H

#include "core/Schedulable.h"
#include "support/SpinLock.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace sting {

/// An MPSC queue of Schedulable pointers: a lock-free ring of Capacity
/// cells backed by a locked spill list. Any thread may post(); exactly one
/// owner thread may drain().
class RemoteMailbox {
public:
  static constexpr std::size_t Capacity = 1024;

  RemoteMailbox() {
    for (std::size_t I = 0; I != Capacity; ++I)
      Cells[I].Seq.store(I, std::memory_order_relaxed);
  }

  RemoteMailbox(const RemoteMailbox &) = delete;
  RemoteMailbox &operator=(const RemoteMailbox &) = delete;

  /// Posts \p Item from any thread. \returns true when the lock-free ring
  /// took it (the observability bit reported as "ring path"), false when
  /// the ring was full and the item went to the spill list.
  bool post(Schedulable &Item) {
    STING_DCHECK(!Item.ListNode<ReadyQueueTag>::isLinked(),
                 "posting an item still on a ready list");
    std::uint64_t T = Tail.load(std::memory_order_relaxed);
    for (;;) {
      Cell &C = Cells[T & Mask];
      std::uint64_t Seq = C.Seq.load(std::memory_order_acquire);
      std::int64_t Dif =
          static_cast<std::int64_t>(Seq) - static_cast<std::int64_t>(T);
      if (Dif == 0) {
        if (Tail.compare_exchange_weak(T, T + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
          C.Item = &Item;
          C.Seq.store(T + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded T; retry with the fresh value.
      } else if (Dif < 0) {
        break; // full
      } else {
        T = Tail.load(std::memory_order_relaxed);
      }
    }
    std::lock_guard<SpinLock> Guard(SpillLock);
    Spill.pushBack(Item);
    // seq_cst: the store side of the no-lost-wakeup pair with empty().
    Spilled.fetch_add(1, std::memory_order_seq_cst);
    return false;
  }

  /// Owner-only: drains every currently-published item, the ring first
  /// and then the spill list. A single burst drained by one call comes out
  /// in post order; across drains an item that spilled may be delivered
  /// after later posts that found room in the ring. Consumers (VP
  /// dispatch) treat mailbox order as best-effort fairness, never as a
  /// correctness invariant. \returns the number of items delivered.
  template <typename Fn> std::size_t drain(Fn &&Consume) {
    std::size_t N = 0;
    std::uint64_t H = Head.load(std::memory_order_relaxed);
    for (;;) {
      Cell &C = Cells[H & Mask];
      std::uint64_t Seq = C.Seq.load(std::memory_order_acquire);
      if (Seq != H + 1)
        break; // unpublished (or empty) — stop, do not spin on a poster
      Schedulable *Item = C.Item;
      C.Seq.store(H + Capacity, std::memory_order_release);
      ++H;
      Head.store(H, std::memory_order_release);
      Consume(*Item);
      ++N;
    }
    if (Spilled.load(std::memory_order_acquire) == 0)
      return N;
    IntrusiveList<Schedulable, ReadyQueueTag> Taken;
    {
      std::lock_guard<SpinLock> Guard(SpillLock);
      Taken.splice(Spill);
      N += Spilled.exchange(0, std::memory_order_seq_cst);
    }
    while (!Taken.empty())
      Consume(Taken.popFront());
    return N;
  }

  /// True when no post is pending. Accurate from any thread: a producer
  /// advances Tail before publishing, and bumps the spill count before a
  /// spilling post returns, so a pending item is never reported empty.
  bool empty() const {
    return Head.load(std::memory_order_seq_cst) ==
               Tail.load(std::memory_order_seq_cst) &&
           Spilled.load(std::memory_order_seq_cst) == 0;
  }

  /// Approximate pending count (diagnostics).
  std::size_t size() const {
    std::uint64_t H = Head.load(std::memory_order_acquire);
    std::uint64_t T = Tail.load(std::memory_order_acquire);
    return static_cast<std::size_t>(T - H) +
           Spilled.load(std::memory_order_acquire);
  }

private:
  static constexpr std::size_t Mask = Capacity - 1;
  static_assert((Capacity & Mask) == 0, "ring capacity is a power of two");

  struct Cell {
    std::atomic<std::uint64_t> Seq;
    Schedulable *Item = nullptr;
  };

  Cell Cells[Capacity];
  // Producers contend on Tail; the owner walks Head. Separate lines so a
  // posting storm does not bounce the consumer's cursor.
  alignas(64) std::atomic<std::uint64_t> Tail{0};
  alignas(64) std::atomic<std::uint64_t> Head{0};
  /// The spill path: written only when the ring is full, so the count
  /// that empty() polls stays a clean shared line.
  alignas(64) std::atomic<std::size_t> Spilled{0};
  SpinLock SpillLock;
  IntrusiveList<Schedulable, ReadyQueueTag> Spill;
};

} // namespace sting

#endif // STING_CORE_POLICY_REMOTEMAILBOX_H
