//===- tuple/TupleSpace.h - First-class tuple spaces -------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-class tuple spaces (paper section 4.2): "an abstraction of a
/// synchronizing content-addressable memory", with the paper's two design
/// signatures reproduced:
///
///  - the general representation uses hash tables with *a mutex per hash
///    bin* ("this permits multiple producers and consumers of a tuple-space
///    to concurrently access its hash tables"), one table of passive
///    tuples and one of blocked readers;
///
///  - representations can be *specialized* — "tuple-spaces can be
///    specialized as synchronized vectors, queues, sets, shared variables,
///    semaphores, or bags; the operations permitted on tuple-spaces remain
///    invariant over their representation" — via an explicit choice or a
///    usage profile standing in for the paper's type-inference pass [17].
///
/// Live threads are bona fide tuple elements: spawn forks thunk fields into
/// threads; matching applies thread-value to determined threads and
/// *steals* delayed/scheduled ones onto the reader's TCB (section 4.2).
///
//===----------------------------------------------------------------------===//

#ifndef STING_TUPLE_TUPLESPACE_H
#define STING_TUPLE_TUPLESPACE_H

#include "support/Deadline.h"
#include "support/IntrusivePtr.h"
#include "tuple/Tuple.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

namespace sting {

namespace gc {
class GlobalHeap;
} // namespace gc

/// Available tuple-space representations.
enum class TupleSpaceRep : std::uint8_t {
  Hashed,         ///< general fully-associative two-hash-table form
  Queue,          ///< FIFO of singleton tuples
  Bag,            ///< unordered multiset of singleton tuples
  Set,            ///< deduplicated bag
  SharedVariable, ///< one mutable cell
  Semaphore,      ///< counting tokens
  Vector,         ///< indexed cells: tuples of the form [index value]
};

const char *tupleSpaceRepName(TupleSpaceRep Rep);

/// A usage description driving representation choice — the stand-in for
/// the paper's compile-time specialization analysis [17].
struct TupleOpsProfile {
  bool UsesTemplates = true;    ///< reads match on field contents
  bool SingletonTuples = false; ///< every tuple has arity 1
  bool OrderedConsumption = false; ///< FIFO takes
  bool AllowsDuplicates = true;
  bool IndexedAccess = false;   ///< tuples are [index value]
  bool TokensOnly = false;      ///< only counts matter
  bool SingleCell = false;      ///< at most one live tuple
};

/// \returns the most specialized representation consistent with \p Profile.
TupleSpaceRep chooseRepresentation(const TupleOpsProfile &Profile);

/// One slot of a space's operation counters: exactly one cache line.
/// Puts/Reads/Takes count *attempts* (blocking, timed and try variants
/// alike), not successes; Blocks counts the episodes where a match had to
/// wait.
struct alignas(64) TupleStatsSlot {
  std::atomic<std::uint64_t> Puts{0};
  std::atomic<std::uint64_t> Reads{0};
  std::atomic<std::uint64_t> Takes{0};
  std::atomic<std::uint64_t> Blocks{0};
  std::atomic<std::uint64_t> Spawns{0};
  /// Deposits transferred straight into a registered waiter's slot (no
  /// insert, exactly one wake) — the contended fast path.
  std::atomic<std::uint64_t> Handoffs{0};
  /// Threads woken by deposits (deliveries + re-scan nudges). With parked
  /// takers this should track Puts 1:1, not O(waiters) per put.
  std::atomic<std::uint64_t> Wakeups{0};
  /// Gauge: entries the hashed representation owns — resident, in flight,
  /// or recycled. Bounded by peak residency plus one TupleEntryCacheCap
  /// per VP cache (DESIGN.md §12.3).
  std::atomic<std::uint64_t> PooledEntries{0};
};
static_assert(sizeof(TupleStatsSlot) == 64, "a slot is one cache line");

/// A space's counters, one slot per VP (DESIGN.md §12.3), so no tuple
/// operation writes a line another VP writes. VP i charges slot i % 16;
/// callers off a VP share the last slot. VPs of two machines, or past the
/// 16th, may share a slot, so charges are relaxed fetch_adds.
class PerVpTupleStats {
public:
  static constexpr std::size_t NumVpSlots = 16;

  /// The calling VP's slot.
  TupleStatsSlot &local();

private:
  friend class TupleSpaceStats;
  TupleStatsSlot Slots[NumVpSlots + 1];
};
// Line-aligned, hence whole lines long: a member of this type shares no
// cache line with the members declared around it.
static_assert(alignof(PerVpTupleStats) == 64);

/// Read-only view of a space's counters. Each field's load() sums every
/// slot, so a total may lag a concurrent writer, as any relaxed load may.
class TupleSpaceStats {
public:
  class Total {
  public:
    std::uint64_t
    load(std::memory_order Order = std::memory_order_seq_cst) const {
      std::uint64_t Sum = 0;
      for (const TupleStatsSlot &S : Owner->Slots)
        Sum += (S.*Field).load(Order);
      return Sum;
    }

  private:
    friend class TupleSpaceStats;
    using FieldPtr = std::atomic<std::uint64_t> TupleStatsSlot::*;
    Total(const PerVpTupleStats &Owner, FieldPtr Field)
        : Owner(&Owner), Field(Field) {}
    const PerVpTupleStats *Owner;
    FieldPtr Field;
  };

  explicit TupleSpaceStats(const PerVpTupleStats &S)
      : Puts(S, &TupleStatsSlot::Puts), Reads(S, &TupleStatsSlot::Reads),
        Takes(S, &TupleStatsSlot::Takes), Blocks(S, &TupleStatsSlot::Blocks),
        Spawns(S, &TupleStatsSlot::Spawns),
        Handoffs(S, &TupleStatsSlot::Handoffs),
        Wakeups(S, &TupleStatsSlot::Wakeups),
        PooledEntries(S, &TupleStatsSlot::PooledEntries) {}

  Total Puts, Reads, Takes, Blocks, Spawns, Handoffs, Wakeups, PooledEntries;
};

/// Most recycled entries one VP's cache in the hashed representation
/// holds before spilling half of them to the space's shared free list.
inline constexpr std::size_t TupleEntryCacheCap = 64;

namespace detail {
class TupleSpaceRepBase;
} // namespace detail

class TupleSpace;
using TupleSpaceRef = IntrusivePtr<TupleSpace>;

/// A first-class tuple space.
class TupleSpace final : public RefCounted<TupleSpace> {
public:
  /// Creates a space with the given representation over \p Heap (defaults
  /// to the calling context's shared old generation).
  static TupleSpaceRef create(TupleSpaceRep Rep = TupleSpaceRep::Hashed,
                              gc::GlobalHeap *Heap = nullptr);

  /// Creates a space whose representation is chosen from \p Profile.
  static TupleSpaceRef create(const TupleOpsProfile &Profile,
                              gc::GlobalHeap *Heap = nullptr);

  TupleSpaceRep representation() const { return Rep; }
  gc::GlobalHeap &heap() const { return *Heap; }
  /// The operation counters, summed over the per-VP slots on each load.
  TupleSpaceStats stats() const { return TupleSpaceStats(Stats); }

  // --- Operations (invariant over representation) -------------------------

  /// Deposits \p T (Linda's out / the paper's put). Text fields intern as
  /// symbols; young gc values are escaped to the old generation.
  void put(Tuple T);

  /// Blocking non-destructive match (rd).
  Match read(Tuple Template);

  /// Blocking destructive match (get / Linda's in).
  Match take(Tuple Template);

  /// Non-blocking variants.
  std::optional<Match> tryRead(Tuple Template);
  std::optional<Match> tryTake(Tuple Template);

  /// Timed variants: nullopt if \p D expired with no match; a deposit (or
  /// live-thread determination) racing the deadline wins.
  std::optional<Match> readUntil(Tuple Template, Deadline D);
  std::optional<Match> takeUntil(Tuple Template, Deadline D);
  std::optional<Match> readFor(Tuple Template, std::uint64_t Nanos) {
    return readUntil(std::move(Template), Deadline::in(Nanos));
  }
  std::optional<Match> takeFor(Tuple Template, std::uint64_t Nanos) {
    return takeUntil(std::move(Template), Deadline::in(Nanos));
  }

  /// Deposits an *active* tuple: thunk fields are forked into threads that
  /// live in the tuple until resolved by a matcher (the paper's spawn).
  /// \returns the forked threads.
  std::vector<ThreadRef> spawn(Tuple T);

  // --- Registration proxies (the multi-VM hook, DESIGN.md §13) ------------

  /// Delivery callback for a proxied registration. Runs on the depositing
  /// (or registering) thread, outside every tuple-space lock; it fires at
  /// most once per registration. Implementations typically enqueue a wire
  /// frame, so the callback must not block on the space itself.
  using ProxyDeliverFn = std::function<void(std::uint64_t Id, Match M)>;

  /// Arms a blocked-reader registration on behalf of a *remote* waiter: the
  /// template parks in the representation's waiter table (the HB row,
  /// reusing the HandoffList discipline) instead of a connection thread
  /// parking per blocked take. If a tuple already matches, \p Deliver fires
  /// before this returns. For \p Remove registrations the delivered tuple
  /// has been consumed; the caller must hand it to exactly one remote
  /// matcher or re-deposit it. \returns false if the representation does
  /// not support proxies (only Hashed does) or \p Id is already registered.
  bool registerProxy(std::uint64_t Id, Tuple Template, bool Remove,
                     ProxyDeliverFn Deliver);

  /// Retracts a proxied registration. \returns true iff it was still armed
  /// — no delivery fired and none will, mirroring HandoffList::finish's
  /// retract-or-observe contract. False means the id is unknown or a
  /// delivery callback already fired / is in flight (the caller will still
  /// observe it; deliveries and retractions are never both reported as
  /// owning the tuple).
  bool retractProxy(std::uint64_t Id);

  /// Live (passive) tuple count.
  std::size_t size() const;

private:
  friend class RefCounted<TupleSpace>;
  TupleSpace(TupleSpaceRep Rep, gc::GlobalHeap &Heap);
  ~TupleSpace();

  /// Interns pending text and escapes young values in place.
  void prepare(Tuple &T);

  // Every operation reads Rep, Heap and Impl and writes a slot of Stats,
  // which keeps its slots on lines of their own.
  TupleSpaceRep Rep;
  gc::GlobalHeap *Heap;
  PerVpTupleStats Stats; ///< before Impl: representations keep a reference
  std::unique_ptr<detail::TupleSpaceRepBase> Impl;
};

} // namespace sting

#endif // STING_TUPLE_TUPLESPACE_H
