//===- obs/SchedStats.h - Per-VP scheduler counters -------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-line-padded scheduler counters, one block per VirtualProcessor.
///
/// A VP charges the events it performs to its own block (a VP is pinned to
/// one OS thread for its whole life), so increments use a relaxed
/// load/store pair instead of a lock-prefixed RMW — other threads may read
/// a value that is one behind, never a torn one. Threads outside every VP
/// (the preemption clock, callers outside the machine) have no block of
/// their own and charge a VP with a fetch_add via incShared(). These
/// blocks are the machine's only counters: machine totals (threads
/// created, determined, stolen) are sums over VPs.
///
//===----------------------------------------------------------------------===//

#ifndef STING_OBS_SCHEDSTATS_H
#define STING_OBS_SCHEDSTATS_H

#include "support/Histogram.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sting::obs {

/// A monotonic event counter. Reads are always safe; inc()/add() are
/// single-writer only (the owning VP), incShared() is safe from anywhere.
class Counter {
public:
  /// Owner-only increment: no lock prefix, so the scheduler fast path pays
  /// a plain load+store per event.
  void inc() {
    Value.store(Value.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }

  /// Owner-only bulk add.
  void add(std::uint64_t N) {
    Value.store(Value.load(std::memory_order_relaxed) + N,
                std::memory_order_relaxed);
  }

  /// Increment from a thread that does not own the stats block.
  void incShared() { Value.fetch_add(1, std::memory_order_relaxed); }

  std::uint64_t get() const { return Value.load(std::memory_order_relaxed); }

  /// Implicit read so call sites can compare counters like plain integers.
  operator std::uint64_t() const { return get(); }

private:
  std::atomic<std::uint64_t> Value{0};
};

struct SchedStatsSnapshot;

/// The per-VP counter block. Padded to cache-line multiples so two VPs'
/// counters never share a line (the whole point of per-VP blocks), and
/// internally split so the counters that off-VP threads charge with
/// incShared() live on their own line: a remote increment must not
/// invalidate the line holding the owner's dispatch-loop counters.
struct alignas(64) SchedStats {
  // --- Off-VP-written line: the owner inc()s these for its own events,
  // threads outside every VP incShared() them. An owner inc() that
  // overlaps a remote incShared() can lose one of the two counts; the
  // lifecycle pair is exact because VP 0, the only VP remote callers
  // charge for it, increments it with incShared() too. ------------------
  Counter Enqueues;     ///< schedulables this VP inserted into a queue
                        ///< (off-VP inserts: charged to the target)
  Counter Wakeups;      ///< unparks delivered from this VP (off-VP
                        ///< deliveries, e.g. the clock: the target)
  Counter MailboxPosts; ///< cross-VP enqueues this VP posted to a mailbox
                        ///< (off-VP posts: charged to the target)
  Counter ThreadsCreated;    ///< threads this VP created (off-VP: VP 0)
  Counter ThreadsTerminated; ///< threads determined on this VP, however
                             ///< they ended (off-VP: VP 0)

  // --- Owner-written lines: only the owning VP's OS thread writes. ------
  alignas(64) Counter Dequeues; ///< schedulables popped by this VP's
                                ///< scheduler loop
  Counter SkippedStale; ///< popped entries whose thread was already taken
  Counter MailboxDrains; ///< items the owner drained from its mailbox

  // Context switches.
  Counter Dispatches;  ///< switches from the scheduler into a thread
  Counter FreshBinds;  ///< dispatches that bound a fresh thread to a TCB
  Counter Resumes;     ///< dispatches that resumed a suspended TCB
  Counter Yields;      ///< switches back caused by an explicit yield
  Counter Parks;       ///< switches back caused by blocking
  Counter Exits;       ///< switches back caused by thread termination
  Counter IdleCalls;   ///< times the policy's vpIdle hook ran

  // TCB cache (paper 4.2: stack/TCB reuse is the fork fast path).
  Counter TcbReuses; ///< TCB acquisitions served from the per-VP cache
  Counter TcbAllocs; ///< TCB acquisitions that had to allocate

  // Thunk stealing.
  Counter StealsAttempted;
  Counter StealsSucceeded;
  Counter StealsFailed;

  // Ready-queue stealing (the Chase-Lev migration edge).
  Counter DequeSteals;    ///< elements this VP stole from sibling deques
  Counter DequeStealCas;  ///< failed steal CASes (lost races, retried)

  // Idle protocol (DESIGN.md section 8): a VP "parks" when its dispatch
  // loop finds no work anywhere and yields to its physical processor,
  // which then sleeps on the machine eventcount.
  Counter VpParks;   ///< transitions into the parked-idle state
  Counter VpUnparks; ///< dispatches that ended a parked-idle episode

  // Preemption.
  Counter PreemptsDelivered; ///< checkpoint consumed a flag and yielded
  Counter PreemptsDeferred;  ///< flag seen while preemption was disabled

  // Blocking, attributed to the VP that ran the op.
  Counter Blocks; ///< parkCurrent entries (intent to block)

  // Network subsystem (src/net), attributed to the VP whose thread ran the
  // operation.
  Counter NetAccepts;            ///< connections accepted by servers
  Counter NetReads;              ///< successful socket read syscalls
  Counter NetWrites;             ///< successful socket write syscalls
  Counter NetBackpressureStalls; ///< writers parked on the high-water mark
  Counter NetRetries;            ///< client request attempts after the first
  Counter NetBreakerOpens;       ///< circuit-breaker closed/half-open -> open
  Counter NetShedded;            ///< connections shed past the admission budget
  Counter PoolCheckoutWaits;     ///< pool checkouts that parked at the cap

  // Tuple space (src/tuple), attributed to the depositing VP.
  Counter TupleHandoffs; ///< deposits transferred straight to a waiter
  Counter TupleWakeups;  ///< threads woken by deposits (deliveries+nudges)

  // Sharded router (src/dist), attributed to the VP whose thread ran the
  // routing decision.
  Counter RouterRoutes;    ///< operations routed to a home shard
  Counter RouterFanouts;   ///< fan-out registration legs armed on shards
  Counter RouterRetracts;  ///< fan-out legs retracted while still armed
  Counter RouterFailovers; ///< operations rerouted off an open-breaker shard

  // Shard replication (src/dist Replica, DESIGN.md §14). Forwards land on
  // the primary shard's VPs, promotions on whichever side applied the
  // epoch bump, catch-up tuples on the rejoining backup's VPs.
  Counter ReplForwards;      ///< put/retract copies forwarded to a backup
  Counter ReplPromotions;    ///< slot promotions applied (epoch advanced)
  Counter ReplCatchupTuples; ///< tuples installed by anti-entropy pulls

  /// Run-slice lengths (dispatch to switch-back), recorded only while
  /// tracing is enabled so the default path never pays the extra clock
  /// read. Owner-written, racy to read mid-run; snapshot after quiesce.
  Histogram RunSliceNanos;

  /// Per-collection stop durations of this VP's local heap scavenges
  /// (plus any full collections its thread triggered). Fed by the gc
  /// layer's pause sink (gc cannot link obs, so gc::LocalHeap exposes a
  /// plain function-pointer hook that core wires here). Always recorded:
  /// a scavenge already costs tens of microseconds, so one extra clock
  /// read is noise.
  Histogram GcPauseNanos;

  SchedStatsSnapshot snapshot() const;
};

/// A plain-integer copy of SchedStats, safe to aggregate and pass around.
/// Field names match SchedStats so reporting code reads naturally.
struct SchedStatsSnapshot {
  std::uint64_t Enqueues = 0;
  std::uint64_t Dequeues = 0;
  std::uint64_t SkippedStale = 0;
  std::uint64_t MailboxPosts = 0;
  std::uint64_t MailboxDrains = 0;
  std::uint64_t Dispatches = 0;
  std::uint64_t FreshBinds = 0;
  std::uint64_t Resumes = 0;
  std::uint64_t Yields = 0;
  std::uint64_t Parks = 0;
  std::uint64_t Exits = 0;
  std::uint64_t IdleCalls = 0;
  std::uint64_t TcbReuses = 0;
  std::uint64_t TcbAllocs = 0;
  std::uint64_t StealsAttempted = 0;
  std::uint64_t StealsSucceeded = 0;
  std::uint64_t StealsFailed = 0;
  std::uint64_t DequeSteals = 0;
  std::uint64_t DequeStealCas = 0;
  std::uint64_t VpParks = 0;
  std::uint64_t VpUnparks = 0;
  std::uint64_t PreemptsDelivered = 0;
  std::uint64_t PreemptsDeferred = 0;
  std::uint64_t ThreadsCreated = 0;
  std::uint64_t ThreadsTerminated = 0;
  std::uint64_t Blocks = 0;
  std::uint64_t Wakeups = 0;
  std::uint64_t NetAccepts = 0;
  std::uint64_t NetReads = 0;
  std::uint64_t NetWrites = 0;
  std::uint64_t NetBackpressureStalls = 0;
  std::uint64_t NetRetries = 0;
  std::uint64_t NetBreakerOpens = 0;
  std::uint64_t NetShedded = 0;
  std::uint64_t PoolCheckoutWaits = 0;
  std::uint64_t TupleHandoffs = 0;
  std::uint64_t TupleWakeups = 0;
  std::uint64_t RouterRoutes = 0;
  std::uint64_t RouterFanouts = 0;
  std::uint64_t RouterRetracts = 0;
  std::uint64_t RouterFailovers = 0;
  std::uint64_t ReplForwards = 0;
  std::uint64_t ReplPromotions = 0;
  std::uint64_t ReplCatchupTuples = 0;
  /// Snapshot-only (no SchedStats counterpart): filled by the machine at
  /// snapshot time from the VP's trace ring, so truncated traces are
  /// detectable instead of silently misleading.
  std::uint64_t TraceEvents = 0; ///< events ever emitted into the ring
  std::uint64_t TraceDrops = 0;  ///< events lost to ring overwrite
  Histogram RunSliceNanos;
  Histogram GcPauseNanos;

  SchedStatsSnapshot &operator+=(const SchedStatsSnapshot &Other);
};

/// One reportable counter: the report label, the Prometheus-style metric
/// name the exposition formatter serves, and the snapshot field. The
/// table is shared by formatStatsReport and obs/Exposition.
struct CounterRow {
  const char *Name;       ///< report label (may carry indent for grouping)
  const char *MetricName; ///< e.g. "sting_dispatches_total"
  std::uint64_t SchedStatsSnapshot::*Field;
};

/// The full counter table, in report order.
const CounterRow *counterRows(std::size_t &Count);

/// Renders the aggregate and the per-VP breakdown as a plain-text table.
/// \p PerVp may be empty (totals only).
std::string formatStatsReport(const SchedStatsSnapshot &Total,
                              const std::vector<SchedStatsSnapshot> &PerVp);

} // namespace sting::obs

#endif // STING_OBS_SCHEDSTATS_H
