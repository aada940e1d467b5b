//===- dist/Replica.h - Chain-of-two shard replication ----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard side of chain-of-two replication (DESIGN.md §14). Each hash
/// slot's tuples live on a two-member replica group — the slot's home
/// shard and its ring successor — and a per-slot *epoch* elects which
/// member currently serves as primary (epoch parity, dist::primaryOf).
/// A Replica instance is one shard's replication brain, shared by every
/// connection that dist::shardHandler serves:
///
///  - Primary put (router RepPut): forward a copy to the backup and wait
///    for its RepAck *before* depositing into the serving space, so any
///    take that can observe the tuple happens after the backup holds a
///    copy. A dead backup degrades to a single-copy deposit (availability
///    over replication, reported in the ack and counted).
///
///  - Backup copy (forwarded RepPut / RepRetract): copies live in a
///    byte-keyed side store, never in the serving TupleSpace — a backup
///    copy must not match local registrations or wildcard fan-out legs.
///    Retracting bytes with no stored copy records a tombstone that eats
///    the next put of equal bytes, so the pair commutes across unordered
///    connections and a delivered tuple is never resurrected.
///
///  - Promotion/demotion (RepPromote/RepDemote/Hello epochs): advancing a
///    slot's epoch atomically swaps the roles — the new primary
///    materializes its side store into the serving space, the demoted
///    member discards the replicated residents it deposited as primary
///    and re-enters as a backup owing a catch-up pull (RepPull/RepState)
///    before it can be promoted again.
///
/// Thread-safety: every public member is thread-safe. One SpinLock guards
/// the slot table; it is never held across an RPC or a space operation.
/// Blocking members (the forwarding and catch-up paths) park and must run
/// on sting threads — which connection handler threads are.
///
//===----------------------------------------------------------------------===//

#ifndef STING_DIST_REPLICA_H
#define STING_DIST_REPLICA_H

#include "dist/Route.h"
#include "net/Pool.h"
#include "support/SpinLock.h"
#include "tuple/TupleSpace.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace sting {
class VirtualMachine;
} // namespace sting

namespace sting::dist {

struct ReplicaConfig {
  /// Copies per slot. 1 disables replication (every hook is a no-op);
  /// only 1 and 2 are supported — the chain has one link.
  std::size_t ReplicationFactor = 2;
  /// Per-attempt budget for one primary→backup forward RPC. Bounds the
  /// latency a dead backup adds to a put before it degrades to a
  /// single-copy ack.
  std::uint64_t ForwardTimeoutNanos = 1'000'000'000;
  /// Budget for one catch-up pull round-trip (the reply carries up to
  /// PullMaxTuples blobs).
  std::uint64_t PullTimeoutNanos = 2'000'000'000;
  /// Anti-entropy chunk bound: a RepState reply carries at most this many
  /// tuples. Larger transfers continue across chunks via the RepPull
  /// offset cursor; the whole sequence installs atomically once complete.
  std::size_t PullMaxTuples = 65536;
  /// Pooled connections per peer for forwards and pulls.
  std::size_t MaxConnectionsPerPeer = 2;
};

/// Monotonic tallies of one shard's replication activity. Readable at any
/// time (relaxed atomics); exact only at quiescence.
struct ReplicaStatsSnapshot {
  std::uint64_t Forwards = 0;        ///< put/retract copies sent to the backup
  std::uint64_t ForwardFailures = 0; ///< forwards that got no RepAck (degraded)
  std::uint64_t StaleRejections = 0; ///< ops fenced off with "stale epoch"
  std::uint64_t Tombstones = 0;      ///< retracts that outran their put
  std::uint64_t Materialized = 0;    ///< copies promoted into the serving space
  std::uint64_t Discarded = 0;       ///< stale residents dropped on demotion
  std::uint64_t CatchupTuples = 0;   ///< copies installed by anti-entropy pulls
  std::uint64_t Promotions = 0;      ///< epoch advances applied by this shard
};

/// One shard's replication state and peer links. Construct alongside the
/// shard's TupleSpace, hand it to dist::ShardConfig, then bind() once
/// every shard's endpoint is known. Destruction (or shutdown()) joins the
/// catch-up helpers; the VirtualMachine and IoService must outlive it.
class Replica {
public:
  /// \p Self is this shard's position in the ring (== its default slot).
  /// No RPCs happen until bind(); until then forwards degrade as if the
  /// peer were down.
  Replica(VirtualMachine &Vm, IoService &Io, TupleSpaceRef Space,
          std::size_t Self, ReplicaConfig Config = {});
  ~Replica();

  Replica(const Replica &) = delete;
  Replica &operator=(const Replica &) = delete;

  /// Supplies the ring topology — one ClientConfig per shard, in ring
  /// order, Self included (its entry is never dialed). Call once, after
  /// every shard's server is listening and before traffic. Not
  /// thread-safe with concurrent replication ops (wire it up first).
  void bind(std::vector<net::ClientConfig> Shards);

  /// Joins catch-up helpers and drops peer connections. Idempotent;
  /// called by the destructor. Further ops degrade to unbound behavior.
  void shutdown();

  /// Replication disabled (factor 1 or single-shard ring)? Pure.
  bool inert() const { return Config.ReplicationFactor < 2 || RingSize < 2; }

  /// Outcome of one replication op, ready to marshal as RepAck or Err.
  struct Ack {
    bool Ok = false;
    std::uint64_t Epoch = 0;  ///< this shard's slot epoch after the op
    std::int64_t Info = 0;    ///< RepAck info field (see net::wire::Op)
    const char *Err = nullptr; ///< refusal reason when !Ok
  };

  /// RepPut: \p Forwarded set means a primary→backup copy (stored in the
  /// side store, tombstone-aware); clear means a router deposit — this
  /// shard must be \p Slot's primary at \p Epoch, forwards to the backup
  /// and waits for its ack, then deposits \p T into the serving space.
  /// Blocks (forward RPC + space deposit). A stale \p Epoch is refused
  /// without touching the space.
  Ack onPut(std::uint64_t Slot, std::uint64_t Epoch, bool Forwarded,
            Tuple T);

  /// RepRetract from the slot's primary: drop one stored copy of \p T's
  /// bytes, or record a tombstone when the copy has not arrived yet.
  /// Non-blocking (map ops only, after epoch reconciliation effects).
  Ack onRetract(std::uint64_t Slot, std::uint64_t Epoch, const Tuple &T);

  /// RepPromote: become \p Slot's primary at exactly \p Epoch (or report
  /// the higher epoch already held). Materializes the side store into the
  /// serving space — Info is the count. Refuses "not caught up" while a
  /// pull is owed, "wrong member" when the epoch's parity elects the
  /// peer. Blocks on the space deposits, never on RPCs.
  Ack onPromote(std::uint64_t Slot, std::uint64_t Epoch);

  /// RepDemote: fence this shard off \p Slot at \p Epoch — discard the
  /// replicated residents it deposited as primary (Info is the count) and
  /// start an asynchronous catch-up pull from the new primary. Blocks on
  /// the space takes, never on RPCs.
  Ack onDemote(std::uint64_t Slot, std::uint64_t Epoch);

  /// RepPull reply data: one chunk of the resident ledger snapshot a
  /// rejoining backup installs.
  struct PullReply {
    bool Ok = false;
    std::uint64_t Epoch = 0;
    bool Complete = true; ///< false: more copies remain past this chunk
    /// Ledger version the chunk was cut at. A multi-chunk transfer is only
    /// coherent while every chunk reports the same version — any resident
    /// mutation bumps it, invalidating the offset cursor.
    std::uint64_t Version = 0;
    std::vector<std::string> Tuples; ///< encoded field bytes, one per copy
    const char *Err = nullptr;
  };

  /// RepPull: snapshot this primary's resident ledger for \p Slot,
  /// skipping the first \p Offset copies (the chunk cursor of a transfer
  /// already in progress). Non-blocking.
  PullReply onPull(std::uint64_t Slot, std::uint64_t Epoch,
                   std::uint64_t Offset = 0);

  /// A Hello handshake carried the router's (slot, epoch) view: adopt any
  /// newer epoch, with the same side effects as a demote when the new
  /// parity elects the peer. Blocks on space ops when a role flips.
  void observeEpoch(std::uint64_t Slot, std::uint64_t Epoch);

  /// A take is about to become observable (its Deliver/TsMatch is about
  /// to flush): if the consumed tuple was a replicated resident, forward
  /// the retract to the backup and wait for its ack, so every observed
  /// delivery already has a tombstoned copy. Blocks (one RPC). Tuples
  /// this shard never deposited as primary (locally seeded, or consumed
  /// after a demotion) are skipped. Call with the match's resolved
  /// fields.
  void noteTaken(std::span<const gc::Value> Fields);

  /// A consumed tuple's delivery was dropped unsent and the tuple is
  /// going back: undo noteTaken. Restores the backup copy (one RPC) and
  /// \returns true when the caller should re-deposit into the local
  /// space. When this shard is no longer the slot's primary the tuple is
  /// instead re-routed to the current primary (so it lands where takes
  /// look), and false is returned unless that re-route failed — the
  /// local deposit is then the conservation fallback. Blocks.
  bool noteRestored(std::span<const gc::Value> Fields);

  /// This shard's ring position. Pure.
  std::size_t selfIndex() const { return Self; }

  /// Current epoch of \p Slot (0 before any promotion). Thread-safe.
  std::uint64_t slotEpoch(std::uint64_t Slot) const;

  /// True while \p Slot's side store owes an anti-entropy pull.
  bool needsCatchup(std::uint64_t Slot) const;

  ReplicaStatsSnapshot statsSnapshot() const;

private:
  struct SlotState {
    std::uint64_t Epoch = 0;
    bool NeedsCatchup = false;
    bool PullRunning = false;
    /// Backup-role side store: encoded field bytes -> copies held.
    std::unordered_map<std::string, std::uint64_t> Store;
    /// Retracts that outran their puts: bytes -> pending annihilations.
    std::unordered_map<std::string, std::uint64_t> Tombstones;
    /// Primary-role ledger: bytes -> copies this shard deposited into the
    /// serving space through the replicated path (what a pull serves and
    /// a demotion discards).
    std::unordered_map<std::string, std::uint64_t> Residents;
    /// Bumped on every Residents mutation. A catch-up transfer's chunk
    /// offsets are only meaningful while this holds still (RepState
    /// carries it; the puller restarts on a mismatch).
    std::uint64_t ResidentsVersion = 0;
    /// Bumped on every forwarded Store/Tombstones mutation. The catch-up
    /// installer records it when a transfer starts and refuses to install
    /// a snapshot any live forward has raced — the snapshot *replaces*
    /// the store, so an unfenced install would drop or double-count the
    /// racing copy.
    std::uint64_t StoreGen = 0;
    /// Primary deposits between their ledger increment and the space put
    /// landing. A demotion's discard pass waits this out so its reclaim
    /// cannot silently miss a tuple still in flight to the space.
    std::uint64_t PendingDeposits = 0;
    /// The slot's catch-up helper (at most one alive — PullRunning gates
    /// it). The previous, finished helper is joined when the next pull
    /// starts, so repeated demotions never accumulate thread refs.
    ThreadRef Puller;
  };

  /// Deferred space work collected under the lock, applied after unlock.
  struct RoleEffects {
    std::vector<std::string> Materialize; ///< one entry per copy to put
    std::vector<std::string> Discard;     ///< one entry per copy to take
    bool StartPull = false;
    std::uint64_t Slot = 0;
  };

  SlotState &slot(std::uint64_t S);
  const SlotState *slotIfPresent(std::uint64_t S) const;

  /// Lock held. Advances \p St to \p Epoch, flipping roles as the parity
  /// dictates and collecting the space work into \p Fx.
  void advanceLocked(std::uint64_t Slot, SlotState &St, std::uint64_t Epoch,
                     RoleEffects &Fx);
  /// Applies collected effects with the lock released. \returns tuples
  /// materialized (for promote's Info).
  std::size_t applyEffects(RoleEffects Fx);

  /// One primary→backup RPC. \returns Ok / PeerDown / PeerStale; a stale
  /// refusal stores the peer's epoch (from the Err frame's trailing
  /// fixnum) into \p StaleEpoch when provided, so the caller adopts the
  /// peer's actual epoch instead of inching forward one at a time.
  enum class ForwardResult { Ok, PeerDown, PeerStale };
  ForwardResult forward(std::size_t Peer, const net::wire::Writer &W,
                        std::uint64_t TimeoutNanos,
                        std::uint64_t *StaleEpoch = nullptr);

  /// Adopts a newer epoch learned from a peer's refusal or handshake,
  /// with the role flip's side effects. No-op when not newer.
  void adoptAtLeast(std::uint64_t Slot, std::uint64_t Epoch);

  void startPull(std::uint64_t Slot);
  void runPull(std::uint64_t Slot);

  VirtualMachine *Vm;
  IoService *Io;
  TupleSpaceRef Space;
  std::size_t Self;
  ReplicaConfig Config;

  mutable SpinLock Lock;
  std::size_t RingSize = 0; ///< 0 until bind()
  std::unordered_map<std::uint64_t, SlotState> Slots;
  std::unique_ptr<net::ConnectionPool> Peers; ///< set by bind()
  std::atomic<bool> Closing{false};

  struct {
    std::atomic<std::uint64_t> Forwards{0}, ForwardFailures{0},
        StaleRejections{0}, Tombstones{0}, Materialized{0}, Discarded{0},
        CatchupTuples{0}, Promotions{0};
  } Stats;
};

using ReplicaRef = std::shared_ptr<Replica>;

} // namespace sting::dist

#endif // STING_DIST_REPLICA_H
