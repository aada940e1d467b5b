//===- core/policy/WorkStealingDeque.h - Chase-Lev deque --------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Chase-Lev work-stealing deque of Schedulable pointers — the lock-free
/// public queue behind the built-in per-VP policies (DESIGN.md section 8).
/// The owning VP pushes and pops at the bottom with no atomic RMW on the
/// uncontended path; thieves (and the owner, when it wants FIFO order)
/// take from the top with a single CAS. This realizes the paper's
/// "Serialization" policy axis: the local enqueue/dispatch fast path
/// bypasses locking entirely, and only the migration edge pays a CAS.
///
/// Memory-order notes (after Le, Pop, Cohen & Nardelli, "Correct and
/// Efficient Work-Stealing for Weak Memory Models", PPoPP'13), adapted to
/// seq_cst operations on Top/Bottom instead of standalone fences because
/// ThreadSanitizer models atomic operations precisely but only
/// approximates fences:
///
///   * popBottom publishes the decremented Bottom with seq_cst, then reads
///     Top with seq_cst; steal reads Top then Bottom the same way. The
///     single total order over these four accesses guarantees that when
///     owner and thief race for the last element, at least one of them
///     sees the other and the Top CAS arbitrates.
///   * pushBottom's slot store is made visible by the release store of
///     Bottom; steal's acquire load of Bottom therefore sees the element
///     (and everything the enqueuer wrote into it) before reading the
///     slot.
///   * A slot is only overwritten after the owner re-reads Top (acquire)
///     and finds it advanced past that index, which synchronizes with the
///     successful thief CAS (release) — so a thief's slot read always
///     happens-before the owner's overwrite.
///
/// The ring grows by doubling; retired rings are kept on a chain until the
/// deque is destroyed, so a thief holding a stale ring pointer can always
/// complete its read (its CAS on Top then decides whether the read
/// counts). Indices are 64-bit and never wrap in practice.
///
/// A slot holding an unstarted Thread carries a tag in its low pointer bit
/// (Schedulable is at least 2-aligned), so stealFresh can tell a fresh
/// thread from a TCB without dereferencing an item it does not own yet.
/// Every other exit strips the tag.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_POLICY_WORKSTEALINGDEQUE_H
#define STING_CORE_POLICY_WORKSTEALINGDEQUE_H

#include "core/Schedulable.h"
#include "support/Debug.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sting {

/// A lock-free work-stealing deque. Exactly one owner thread may call
/// pushBottom/popBottom/takeTop; any thread may call steal/size/empty.
class WorkStealingDeque {
public:
  /// Outcome of a steal attempt, distinguished so callers can count
  /// contended CAS failures separately from emptiness.
  enum class StealResult : std::uint8_t {
    Ok,    ///< an element was transferred
    Empty, ///< the deque was observed empty
    Lost,  ///< another consumer won the CAS race; retrying may succeed
  };

  explicit WorkStealingDeque(std::size_t InitialCapacity = 256)
      : Buf(Ring::alloc(roundUpPow2(InitialCapacity), nullptr)) {}

  WorkStealingDeque(const WorkStealingDeque &) = delete;
  WorkStealingDeque &operator=(const WorkStealingDeque &) = delete;

  ~WorkStealingDeque() {
    Ring *R = Buf.load(std::memory_order_relaxed);
    while (R) {
      Ring *Prev = R->Prev;
      Ring::free(R);
      R = Prev;
    }
  }

  /// Owner-only: appends \p Item at the bottom, tagged fresh when it is a
  /// Thread. Lock-free; grows the ring when full (amortized O(1), old rings
  /// are retired, not freed).
  void pushBottom(Schedulable &Item) {
    std::int64_t B = Bottom.load(std::memory_order_relaxed);
    std::int64_t T = Top.load(std::memory_order_acquire);
    Ring *A = Buf.load(std::memory_order_relaxed);
    if (B - T > static_cast<std::int64_t>(A->Capacity) - 1)
      A = grow(A, B, T);
    A->slot(B).store(reinterpret_cast<Word>(&Item) |
                         (Item.isThread() ? FreshTag : 0),
                     std::memory_order_relaxed);
    Bottom.store(B + 1, std::memory_order_release);
  }

  /// Owner-only: removes and \returns the most recently pushed element
  /// (LIFO), or null if empty. No atomic RMW unless the deque holds
  /// exactly one element (the take/steal race, arbitrated by CAS on Top).
  Schedulable *popBottom() {
    std::int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    Ring *A = Buf.load(std::memory_order_relaxed);
    Bottom.store(B, std::memory_order_seq_cst);
    std::int64_t T = Top.load(std::memory_order_seq_cst);
    if (T > B) {
      // Already empty; restore the canonical empty shape.
      Bottom.store(B + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Schedulable *X = untag(A->slot(B).load(std::memory_order_relaxed));
    if (T == B) {
      // Last element: race a concurrent steal for it.
      if (!Top.compare_exchange_strong(T, T + 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed))
        X = nullptr; // a thief got it
      Bottom.store(B + 1, std::memory_order_relaxed);
    }
    return X;
  }

  /// Any thread: attempts to transfer the oldest element (FIFO end) into
  /// \p Out. On StealResult::Lost the caller may retry.
  StealResult steal(Schedulable *&Out) {
    std::int64_t T = Top.load(std::memory_order_seq_cst);
    std::int64_t B = Bottom.load(std::memory_order_seq_cst);
    if (T >= B)
      return StealResult::Empty;
    Ring *A = Buf.load(std::memory_order_acquire);
    Word X = A->slot(T).load(std::memory_order_relaxed);
    if (!Top.compare_exchange_strong(T, T + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      return StealResult::Lost;
    Out = untag(X);
    return StealResult::Ok;
  }

  /// Any thread: steal() restricted to an unstarted thread that a previous
  /// call with the same \p Seen already found at the top. \returns Empty
  /// when the deque is empty, when the top slot holds a TCB (bound to its
  /// VP), or when Top moved since that call; in the last case a non-empty
  /// deque's Top is recorded in \p Seen for the next call. Like steal(),
  /// the item is not dereferenced before the CAS makes it the caller's.
  /// \p Seen belongs to one thief; start it at -1.
  StealResult stealFresh(Schedulable *&Out, std::int64_t &Seen) {
    std::int64_t T = Top.load(std::memory_order_seq_cst);
    std::int64_t B = Bottom.load(std::memory_order_seq_cst);
    if (T >= B)
      return StealResult::Empty;
    if (T != Seen) {
      Seen = T;
      return StealResult::Empty;
    }
    Ring *A = Buf.load(std::memory_order_acquire);
    Word X = A->slot(T).load(std::memory_order_relaxed);
    if (!(X & FreshTag))
      return StealResult::Empty;
    if (!Top.compare_exchange_strong(T, T + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      return StealResult::Lost;
    Out = untag(X);
    return StealResult::Ok;
  }

  /// Owner-only FIFO pop: takes from the top via the steal path (one CAS,
  /// uncontended unless a thief races). \returns null when empty.
  Schedulable *takeTop() {
    for (;;) {
      Schedulable *Out = nullptr;
      switch (steal(Out)) {
      case StealResult::Ok:
        return Out;
      case StealResult::Empty:
        return nullptr;
      case StealResult::Lost:
        continue; // a thief advanced Top under us; re-read and retry
      }
    }
  }

  /// Approximate element count; exact when no operation is in flight.
  std::size_t size() const {
    std::int64_t B = Bottom.load(std::memory_order_acquire);
    std::int64_t T = Top.load(std::memory_order_acquire);
    return B > T ? static_cast<std::size_t>(B - T) : 0;
  }

  bool empty() const { return size() == 0; }

  /// Current ring capacity (tests and diagnostics).
  std::size_t capacity() const {
    return Buf.load(std::memory_order_acquire)->Capacity;
  }

private:
  /// A slot's contents: a Schedulable pointer, FreshTag set for a Thread.
  using Word = std::uintptr_t;
  static constexpr Word FreshTag = 1;
  static_assert(alignof(Schedulable) >= 2, "the tag needs a free low bit");

  static Schedulable *untag(Word X) {
    return reinterpret_cast<Schedulable *>(X & ~FreshTag);
  }

  struct Ring {
    std::size_t Capacity; ///< power of two
    Ring *Prev;           ///< retired predecessor, freed at destruction
    // Slots follow the header in the same allocation.

    std::atomic<Word> &slot(std::int64_t I) {
      auto *Slots = reinterpret_cast<std::atomic<Word> *>(this + 1);
      return Slots[static_cast<std::size_t>(I) & (Capacity - 1)];
    }

    static Ring *alloc(std::size_t Capacity, Ring *Prev) {
      void *Mem =
          ::operator new(sizeof(Ring) + Capacity * sizeof(std::atomic<Word>),
                         std::align_val_t{alignof(Ring)});
      Ring *R = static_cast<Ring *>(Mem);
      R->Capacity = Capacity;
      R->Prev = Prev;
      for (std::size_t I = 0; I != Capacity; ++I)
        new (reinterpret_cast<std::atomic<Word> *>(R + 1) + I)
            std::atomic<Word>(0);
      return R;
    }

    static void free(Ring *R) {
      ::operator delete(R, std::align_val_t{alignof(Ring)});
    }
  };

  static std::size_t roundUpPow2(std::size_t N) {
    std::size_t P = 8;
    while (P < N)
      P <<= 1;
    return P;
  }

  /// Owner-only: doubles the ring, copying the live window [T, B) with its
  /// tags. The old ring stays reachable (chained) for thieves still reading
  /// it.
  Ring *grow(Ring *Old, std::int64_t B, std::int64_t T) {
    Ring *New = Ring::alloc(Old->Capacity * 2, Old);
    for (std::int64_t I = T; I != B; ++I)
      New->slot(I).store(Old->slot(I).load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    Buf.store(New, std::memory_order_release);
    return New;
  }

  // Top and Bottom are the two contended words; keep them (and the ring
  // pointer) on separate cache lines so thieves hammering Top never evict
  // the owner's Bottom line (see the false-sharing notes in DESIGN.md §8).
  alignas(64) std::atomic<std::int64_t> Top{0};
  alignas(64) std::atomic<std::int64_t> Bottom{0};
  alignas(64) std::atomic<Ring *> Buf;
};

} // namespace sting

#endif // STING_CORE_POLICY_WORKSTEALINGDEQUE_H
