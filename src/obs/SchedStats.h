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
#include <cstddef>
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

// The counter lists: the only declaration of each scheduler counter.
// Each entry is X(Field, report label, metric name); the SchedStats and
// SchedStatsSnapshot fields, snapshot(), operator+= and counterRows() are
// all generated from them, so a counter is one line here. The two lists
// are the two halves of the block's cache-line split (see SchedStats).

/// Off-VP-written line: the owner inc()s these for its own events,
/// threads outside every VP incShared() them. An owner inc() that
/// overlaps a remote incShared() can lose one of the two counts; the
/// lifecycle pair is exact because VP 0, the only VP remote callers charge
/// for it, increments it with incShared() too.
#define STING_SCHED_SHARED_COUNTERS(X)                                        \
  /* schedulables this VP inserted into a queue (off-VP: the target) */      \
  X(Enqueues, "enqueues", "sting_enqueues_total")                             \
  /* unparks delivered from this VP (off-VP, e.g. the clock: the target) */  \
  X(Wakeups, "wakeups", "sting_wakeups_total")                                \
  /* cross-VP enqueues this VP posted to a mailbox (off-VP: the target) */   \
  X(MailboxPosts, "mailbox posts", "sting_mailbox_posts_total")               \
  /* threads this VP created (off-VP: VP 0) */                               \
  X(ThreadsCreated, "threads created", "sting_threads_created_total")         \
  /* threads determined on this VP, however they ended (off-VP: VP 0) */     \
  X(ThreadsTerminated, "threads terminated", "sting_threads_terminated_total")

/// Owner-written lines: only the owning VP's OS thread writes.
#define STING_SCHED_OWNER_COUNTERS(X)                                         \
  /* schedulables popped by this VP's scheduler loop */                      \
  X(Dequeues, "dequeues", "sting_dequeues_total")                             \
  /* popped entries whose thread was already taken */                        \
  X(SkippedStale, "stale skips", "sting_stale_skips_total")                   \
  /* items the owner drained from its mailbox */                             \
  X(MailboxDrains, "mailbox drains", "sting_mailbox_drains_total")            \
  /* Context switches: scheduler into a thread, then how it got there */     \
  X(Dispatches, "dispatches", "sting_dispatches_total")                       \
  X(FreshBinds, "  fresh binds", "sting_fresh_binds_total")                   \
  X(Resumes, "  resumes", "sting_resumes_total")                              \
  /* ...and why it switched back: explicit yield, block, termination */      \
  X(Yields, "yields", "sting_yields_total")                                   \
  X(Parks, "parks", "sting_parks_total")                                      \
  X(Exits, "exits", "sting_exits_total")                                      \
  /* times the policy's vpIdle hook ran */                                   \
  X(IdleCalls, "idle calls", "sting_idle_calls_total")                        \
  /* TCB cache (paper 4.2: stack/TCB reuse is the fork fast path) */         \
  X(TcbReuses, "tcb reuses", "sting_tcb_reuses_total")                        \
  X(TcbAllocs, "tcb allocs", "sting_tcb_allocs_total")                        \
  /* Thunk stealing */                                                       \
  X(StealsAttempted, "steals attempted", "sting_steals_attempted_total")      \
  X(StealsSucceeded, "steals succeeded", "sting_steals_succeeded_total")      \
  X(StealsFailed, "steals failed", "sting_steals_failed_total")               \
  /* Ready-queue stealing: elements stolen, failed (retried) steal CASes */  \
  X(DequeSteals, "deque steals", "sting_deque_steals_total")                  \
  X(DequeStealCas, "deque steal cas", "sting_deque_steal_cas_total")          \
  /* Idle protocol (DESIGN.md section 8): a VP parks when its dispatch loop  \
     finds no work anywhere; an unpark is the dispatch that ends it */       \
  X(VpParks, "vp parks", "sting_vp_parks_total")                              \
  X(VpUnparks, "vp unparks", "sting_vp_unparks_total")                        \
  /* Preemption: flag consumed at a checkpoint, or seen while disabled */    \
  X(PreemptsDelivered, "preempts delivered",                                  \
    "sting_preempts_delivered_total")                                         \
  X(PreemptsDeferred, "preempts deferred", "sting_preempts_deferred_total")   \
  /* parkCurrent entries (intent to block) */                                \
  X(Blocks, "blocks", "sting_blocks_total")                                   \
  /* Network subsystem (src/net), charged to the VP that ran the op:        \
     accepts, read/write syscalls, writers parked on the high-water mark,   \
     client retries, breaker opens, connections shed past the admission     \
     budget, pool checkouts that parked at the cap */                        \
  X(NetAccepts, "net accepts", "sting_net_accepts_total")                     \
  X(NetReads, "net reads", "sting_net_reads_total")                           \
  X(NetWrites, "net writes", "sting_net_writes_total")                        \
  X(NetBackpressureStalls, "net bp stalls",                                   \
    "sting_net_backpressure_stalls_total")                                    \
  X(NetRetries, "net retries", "sting_net_retries_total")                     \
  X(NetBreakerOpens, "net breaker opens", "sting_net_breaker_opens_total")    \
  X(NetShedded, "net shedded", "sting_net_shedded_total")                     \
  X(PoolCheckoutWaits, "pool checkout waits",                                 \
    "sting_pool_checkout_waits_total")                                        \
  /* Tuple space (src/tuple), charged to the depositing VP: deposits        \
     handed straight to a waiter, threads woken (deliveries + nudges), and  \
     the handoffs whose waiter was parked on the depositor's own VP lane */ \
  X(TupleHandoffs, "tuple handoffs", "sting_tuple_handoffs_total")            \
  X(TupleWakeups, "tuple wakeups", "sting_tuple_wakeups_total")               \
  X(TupleLocalHandoffs, "tuple local handoffs",                               \
    "sting_tuple_local_handoffs_total")                                       \
  /* Sharded router (src/dist), charged to the VP that routed: ops routed   \
     to a home shard, fan-out legs armed, legs retracted while armed, ops   \
     rerouted off an open-breaker shard */                                   \
  X(RouterRoutes, "router routes", "sting_router_routes_total")               \
  X(RouterFanouts, "router fanouts", "sting_router_fanouts_total")            \
  X(RouterRetracts, "router retracts", "sting_router_retracts_total")         \
  X(RouterFailovers, "router failovers", "sting_router_failovers_total")       \
  /* Shard replication (DESIGN.md section 14): copies forwarded to a backup \
     (on the primary's VPs), promotions applied (where the epoch bump ran), \
     tuples installed by catch-up pulls (on the rejoining backup's VPs) */   \
  X(ReplForwards, "repl forwards", "sting_repl_forwards_total")               \
  X(ReplPromotions, "repl promotions", "sting_repl_promotions_total")         \
  X(ReplCatchupTuples, "repl catchup tuples",                                 \
    "sting_repl_catchup_tuples_total")

#define STING_SCHED_COUNTERS(X)                                               \
  STING_SCHED_SHARED_COUNTERS(X) STING_SCHED_OWNER_COUNTERS(X)

struct SchedStatsSnapshot;

/// The per-VP counter block. Padded to cache-line multiples so two VPs'
/// counters never share a line (the whole point of per-VP blocks), and
/// internally split so the counters that off-VP threads charge with
/// incShared() live on their own line: a remote increment must not
/// invalidate the line holding the owner's dispatch-loop counters.
struct alignas(64) SchedStats {
#define STING_COUNTER_FIELD(Field, Label, Metric) Counter Field;
#define STING_COUNT_ONE(Field, Label, Metric) +1
  STING_SCHED_SHARED_COUNTERS(STING_COUNTER_FIELD)
  /// Fills the off-VP-written line, so the owner lines start on the next.
  char SharedLinePad[64 - (0 STING_SCHED_SHARED_COUNTERS(STING_COUNT_ONE)) *
                              sizeof(Counter)];
  STING_SCHED_OWNER_COUNTERS(STING_COUNTER_FIELD)
#undef STING_COUNT_ONE
#undef STING_COUNTER_FIELD

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

static_assert(offsetof(SchedStats, Dequeues) == 64,
              "the owner lines must start on the block's second line");

/// A plain-integer copy of SchedStats, safe to aggregate and pass around.
/// Field names match SchedStats so reporting code reads naturally.
struct SchedStatsSnapshot {
#define STING_SNAPSHOT_FIELD(Field, Label, Metric) std::uint64_t Field = 0;
  STING_SCHED_COUNTERS(STING_SNAPSHOT_FIELD)
#undef STING_SNAPSHOT_FIELD
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

/// The full counter table, in report order: the list order, then the two
/// trace-ring rows.
const CounterRow *counterRows(std::size_t &Count);

/// Renders the aggregate and the per-VP breakdown as a plain-text table.
/// \p PerVp may be empty (totals only).
std::string formatStatsReport(const SchedStatsSnapshot &Total,
                              const std::vector<SchedStatsSnapshot> &PerVp);

} // namespace sting::obs

#endif // STING_OBS_SCHEDSTATS_H
