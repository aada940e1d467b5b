//===- dist/Replica.cpp - Chain-of-two shard replication ----------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "dist/Replica.h"

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "obs/Flow.h"
#include "obs/TraceBuffer.h"
#include "sync/ParkList.h"

#include <algorithm>
#include <mutex>

namespace sting::dist {

namespace wire = net::wire;
using TC = ThreadController;

namespace {

/// Packs the ReplForward/ReplPromote trace payload: slot in the low 16
/// bits, a retract bit, then the epoch's low bits.
std::uint32_t replPayload(std::uint64_t Slot, bool Retract,
                          std::uint64_t Epoch) {
  return static_cast<std::uint32_t>(Slot & 0xffff) |
         (Retract ? 1u << 16 : 0u) |
         (static_cast<std::uint32_t>(Epoch & 0x7fff) << 17);
}

/// Rebuilds a Tuple from encodeFields() bytes (prefixing a throwaway
/// opcode so the frame Reader accepts it).
bool decodeFields(const std::string &Bytes, Tuple &Out) {
  std::vector<std::uint8_t> Buf;
  Buf.reserve(Bytes.size() + 1);
  Buf.push_back(static_cast<std::uint8_t>(wire::Op::Echo));
  Buf.insert(Buf.end(), Bytes.begin(), Bytes.end());
  wire::Reader R(Buf.data(), Buf.size());
  return R.ok() && wire::readTuple(R, Out);
}

void stampFlow(wire::Writer &W) {
  if (obs::FlowId F = obs::currentFlowId())
    W.flow(F);
}

} // namespace

Replica::Replica(VirtualMachine &Vm, IoService &Io, TupleSpaceRef Space,
                 std::size_t Self, ReplicaConfig Config)
    : Vm(&Vm), Io(&Io), Space(std::move(Space)), Self(Self),
      Config(Config) {
  STING_CHECK(Config.ReplicationFactor <= 2,
              "chain-of-two supports at most one backup per slot");
}

Replica::~Replica() { shutdown(); }

void Replica::bind(std::vector<net::ClientConfig> Shards) {
  net::PoolConfig PC;
  PC.MaxConnections = Config.MaxConnectionsPerPeer;
  PC.Endpoints = Shards;
  auto Pool = std::make_unique<net::ConnectionPool>(*Io, std::move(PC));
  std::lock_guard<SpinLock> G(Lock);
  RingSize = Shards.size();
  Peers = std::move(Pool);
}

void Replica::shutdown() {
  Closing.store(true, std::memory_order_release);
  std::vector<ThreadRef> Hs;
  {
    std::lock_guard<SpinLock> G(Lock);
    for (auto &[S, St] : Slots)
      if (St.Puller)
        Hs.push_back(std::move(St.Puller));
  }
  for (ThreadRef &H : Hs)
    TC::threadWaitFor(*H, Deadline::never());
  // Peers stays alive: connection handlers may still hold this Replica
  // (via ShardConfig's shared_ptr) and race a last forward; the pool dies
  // with the Replica itself.
}

Replica::SlotState &Replica::slot(std::uint64_t S) { return Slots[S]; }

const Replica::SlotState *Replica::slotIfPresent(std::uint64_t S) const {
  auto It = Slots.find(S);
  return It == Slots.end() ? nullptr : &It->second;
}

std::uint64_t Replica::slotEpoch(std::uint64_t S) const {
  std::lock_guard<SpinLock> G(Lock);
  const SlotState *St = slotIfPresent(S);
  return St ? St->Epoch : 0;
}

bool Replica::needsCatchup(std::uint64_t S) const {
  std::lock_guard<SpinLock> G(Lock);
  const SlotState *St = slotIfPresent(S);
  return St && St->NeedsCatchup;
}

ReplicaStatsSnapshot Replica::statsSnapshot() const {
  ReplicaStatsSnapshot S;
  S.Forwards = Stats.Forwards.load(std::memory_order_relaxed);
  S.ForwardFailures = Stats.ForwardFailures.load(std::memory_order_relaxed);
  S.StaleRejections = Stats.StaleRejections.load(std::memory_order_relaxed);
  S.Tombstones = Stats.Tombstones.load(std::memory_order_relaxed);
  S.Materialized = Stats.Materialized.load(std::memory_order_relaxed);
  S.Discarded = Stats.Discarded.load(std::memory_order_relaxed);
  S.CatchupTuples = Stats.CatchupTuples.load(std::memory_order_relaxed);
  S.Promotions = Stats.Promotions.load(std::memory_order_relaxed);
  return S;
}

void Replica::advanceLocked(std::uint64_t Slot, SlotState &St,
                            std::uint64_t Epoch, RoleEffects &Fx) {
  bool WasPrimary =
      RingSize >= 2 && primaryOf(Slot, St.Epoch, RingSize) == Self;
  bool IsPrimary = RingSize >= 2 && primaryOf(Slot, Epoch, RingSize) == Self;
  St.Epoch = Epoch;
  Fx.Slot = Slot;
  if (!WasPrimary && IsPrimary) {
    // Backup rising: every stored copy enters the serving space and
    // becomes a resident this shard now answers pulls for. Tombstones
    // refer to copies the old primary already consumed; after the flip
    // nothing will forward those retracts again, so they die here.
    for (auto &[B, N] : St.Store) {
      for (std::uint64_t I = 0; I != N; ++I)
        Fx.Materialize.push_back(B);
      St.Residents[B] += N;
    }
    St.Store.clear();
    St.Tombstones.clear();
    ++St.ResidentsVersion;
    ++St.StoreGen;
    St.NeedsCatchup = false;
    Stats.Promotions.fetch_add(1, std::memory_order_relaxed);
  } else if (WasPrimary && !IsPrimary) {
    // Primary fenced: its replicated residents now live (and get
    // consumed) at the peer; keeping them here would double-deliver.
    // Locally seeded tuples were never residents and stay untouched.
    for (auto &[B, N] : St.Residents)
      for (std::uint64_t I = 0; I != N; ++I)
        Fx.Discard.push_back(B);
    St.Residents.clear();
    St.Store.clear();
    St.Tombstones.clear();
    ++St.ResidentsVersion;
    ++St.StoreGen;
    St.NeedsCatchup = true;
    Fx.StartPull = true;
  }
}

std::size_t Replica::applyEffects(RoleEffects Fx) {
  if (!Fx.Discard.empty()) {
    // A racing primary put may sit between its ledger increment and the
    // space deposit landing; reclaiming before it lands would silently
    // miss it and leave a split-brain resident behind the demotion. Each
    // pending deposit is one space op from done — wait them out.
    for (;;) {
      {
        std::lock_guard<SpinLock> G(Lock);
        const SlotState *St = slotIfPresent(Fx.Slot);
        if (!St || St->PendingDeposits == 0)
          break;
      }
      TC::yieldProcessor();
    }
  }
  for (const std::string &B : Fx.Discard) {
    Tuple T;
    if (decodeFields(B, T) && Space->tryTake(std::move(T)))
      Stats.Discarded.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t Mat = 0;
  for (const std::string &B : Fx.Materialize) {
    Tuple T;
    if (decodeFields(B, T)) {
      Space->put(std::move(T));
      ++Mat;
    }
  }
  if (Mat)
    Stats.Materialized.fetch_add(Mat, std::memory_order_relaxed);
  if (Fx.StartPull)
    startPull(Fx.Slot);
  return Mat;
}

void Replica::adoptAtLeast(std::uint64_t Slot, std::uint64_t Epoch) {
  RoleEffects Fx;
  {
    std::lock_guard<SpinLock> G(Lock);
    SlotState &St = slot(Slot);
    if (Epoch <= St.Epoch)
      return;
    advanceLocked(Slot, St, Epoch, Fx);
  }
  applyEffects(std::move(Fx));
}

void Replica::observeEpoch(std::uint64_t Slot, std::uint64_t Epoch) {
  adoptAtLeast(Slot, Epoch);
}

Replica::ForwardResult Replica::forward(std::size_t Peer,
                                        const wire::Writer &W,
                                        std::uint64_t TimeoutNanos,
                                        std::uint64_t *StaleEpoch) {
  net::ConnectionPool *P;
  {
    std::lock_guard<SpinLock> G(Lock);
    P = Peers.get();
  }
  if (!P || Closing.load(std::memory_order_acquire))
    return ForwardResult::PeerDown;
  std::vector<std::uint8_t> Reply;
  if (P->requestFrom(Peer, W, Reply, Deadline::in(TimeoutNanos)) !=
      net::RequestStatus::Ok)
    return ForwardResult::PeerDown;
  wire::Reader Rd(Reply.data(), Reply.size());
  if (!Rd.ok())
    return ForwardResult::PeerDown;
  if (Rd.op() == wire::Op::RepAck)
    return ForwardResult::Ok;
  if (Rd.op() == wire::Op::Err) {
    Rd.takeFlow();
    wire::ReadField F;
    if (Rd.next(F) && F.T == wire::Tag::Text && F.Bytes == "stale epoch") {
      wire::ReadField EpochF;
      if (StaleEpoch && Rd.next(EpochF) && EpochF.T == wire::Tag::Fixnum)
        *StaleEpoch = static_cast<std::uint64_t>(EpochF.Num);
      return ForwardResult::PeerStale;
    }
  }
  return ForwardResult::PeerDown;
}

Replica::Ack Replica::onPut(std::uint64_t S, std::uint64_t Epoch,
                            bool Forwarded, Tuple T) {
  std::string Bytes = encodeFields(T);
  RoleEffects Fx;
  std::uint64_t E;
  {
    std::lock_guard<SpinLock> G(Lock);
    if (RingSize < 2)
      return {false, 0, 0, "unbound"};
    SlotState &St = slot(S);
    if (Epoch < St.Epoch) {
      Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
      return {false, St.Epoch, 0, "stale epoch"};
    }
    if (Epoch > St.Epoch)
      advanceLocked(S, St, Epoch, Fx);
    E = St.Epoch;
    if (Forwarded) {
      if (backupOf(S, E, RingSize) != Self) {
        Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
        return {false, E, 0, "stale epoch"};
      }
      // Commute with a retract that outran us: the copy was already
      // consumed, so it annihilates instead of landing.
      auto It = St.Tombstones.find(Bytes);
      if (It != St.Tombstones.end()) {
        if (--It->second == 0)
          St.Tombstones.erase(It);
      } else {
        ++St.Store[Bytes];
      }
      ++St.StoreGen;
    } else if (primaryOf(S, E, RingSize) != Self) {
      Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
      return {false, E, 0, "stale epoch"};
    }
  }
  std::size_t Flipped = applyEffects(std::move(Fx));
  (void)Flipped;
  if (Forwarded)
    return {true, E, 0, nullptr};

  // Primary deposit: copy to the backup *first*, so by the time any take
  // can observe the tuple its backup copy is durable at the peer. A dead
  // peer degrades to a single-copy ack — availability over replication —
  // and the degradation is visible in Info bit0 and ForwardFailures.
  bool Replicated = false;
  if (!inert()) {
    wire::Writer W(wire::Op::RepPut);
    stampFlow(W);
    W.fixnum(static_cast<std::int64_t>(S));
    W.fixnum(static_cast<std::int64_t>(E));
    W.fixnum(1); // forwarded
    if (!writeTupleFields(W, T))
      return {false, E, 0, "unmarshalable tuple"};
    std::uint64_t PeerE = 0;
    switch (forward(backupOf(S, E, RingSize), W, Config.ForwardTimeoutNanos,
                    &PeerE)) {
    case ForwardResult::Ok:
      Replicated = true;
      Stats.Forwards.fetch_add(1, std::memory_order_relaxed);
      if (VirtualProcessor *Vp = currentVp())
        Vp->stats().ReplForwards.inc();
      STING_TRACE_EVENT(ReplForward, 0, replPayload(S, false, E));
      break;
    case ForwardResult::PeerDown:
      Stats.ForwardFailures.fetch_add(1, std::memory_order_relaxed);
      break;
    case ForwardResult::PeerStale: {
      // The backup is ahead of us: we were fenced while this put was in
      // flight. Abort without depositing — the router retries against
      // the member the new epoch elects.
      adoptAtLeast(S, std::max(E + 1, PeerE));
      Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
      return {false, slotEpoch(S), 0, "stale epoch"};
    }
    }
  }
  {
    std::lock_guard<SpinLock> G(Lock);
    SlotState &St = slot(S);
    if (St.Epoch != E || primaryOf(S, E, RingSize) != Self) {
      // Demoted while forwarding: depositing now would resurrect the
      // tuple on the wrong member. The backup copy (if one landed) is
      // the new primary's problem and its epoch logic already owns it.
      Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
      return {false, St.Epoch, 0, "stale epoch"};
    }
    ++St.Residents[Bytes];
    ++St.ResidentsVersion;
    ++St.PendingDeposits;
  }
  Space->put(std::move(T));
  std::uint64_t After;
  {
    std::lock_guard<SpinLock> G(Lock);
    SlotState &St = slot(S);
    --St.PendingDeposits;
    After = St.Epoch;
  }
  if (After == E)
    return {true, E, Replicated ? 1 : 0, nullptr};
  // A demotion raced the deposit. Its discard pass waits out pending
  // deposits, so the copy that just landed is reclaimed with the rest of
  // the ledger rather than surviving as a split-brain resident. With a
  // backup copy the promoted peer materialized it and owns delivery;
  // degraded single-copy puts leave no surviving copy, so report stale
  // and let the router re-route.
  if (Replicated)
    return {true, After, 1, nullptr};
  Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
  return {false, After, 0, "stale epoch"};
}

Replica::Ack Replica::onRetract(std::uint64_t S, std::uint64_t Epoch,
                                const Tuple &T) {
  std::string Bytes = encodeFields(T);
  RoleEffects Fx;
  std::uint64_t E;
  {
    std::lock_guard<SpinLock> G(Lock);
    if (RingSize < 2)
      return {false, 0, 0, "unbound"};
    SlotState &St = slot(S);
    if (Epoch < St.Epoch) {
      Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
      return {false, St.Epoch, 0, "stale epoch"};
    }
    if (Epoch > St.Epoch)
      advanceLocked(S, St, Epoch, Fx);
    E = St.Epoch;
    if (backupOf(S, E, RingSize) != Self) {
      Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
      return {false, E, 0, "stale epoch"};
    }
    auto It = St.Store.find(Bytes);
    if (It != St.Store.end()) {
      if (--It->second == 0)
        St.Store.erase(It);
    } else {
      ++St.Tombstones[Bytes];
      Stats.Tombstones.fetch_add(1, std::memory_order_relaxed);
    }
    ++St.StoreGen;
  }
  applyEffects(std::move(Fx));
  return {true, E, 0, nullptr};
}

Replica::Ack Replica::onPromote(std::uint64_t S, std::uint64_t Epoch) {
  RoleEffects Fx;
  std::uint64_t E;
  {
    std::lock_guard<SpinLock> G(Lock);
    if (RingSize < 2)
      return {false, 0, 0, "unbound"};
    SlotState &St = slot(S);
    if (Epoch <= St.Epoch) {
      if (primaryOf(S, St.Epoch, RingSize) == Self)
        return {true, St.Epoch, 0, nullptr}; // idempotent re-promote
      Stats.StaleRejections.fetch_add(1, std::memory_order_relaxed);
      return {false, St.Epoch, 0, "stale epoch"};
    }
    if (primaryOf(S, Epoch, RingSize) != Self)
      return {false, St.Epoch, 0, "wrong member"};
    if (St.NeedsCatchup)
      return {false, St.Epoch, 0, "not caught up"};
    advanceLocked(S, St, Epoch, Fx);
    E = St.Epoch;
  }
  std::size_t Mat = applyEffects(std::move(Fx));
  if (VirtualProcessor *Vp = currentVp())
    Vp->stats().ReplPromotions.inc();
  STING_TRACE_EVENT(ReplPromote, 0, replPayload(S, false, E));
  return {true, E, static_cast<std::int64_t>(Mat), nullptr};
}

Replica::Ack Replica::onDemote(std::uint64_t S, std::uint64_t Epoch) {
  RoleEffects Fx;
  std::uint64_t E;
  std::size_t Dropped;
  {
    std::lock_guard<SpinLock> G(Lock);
    if (RingSize < 2)
      return {false, 0, 0, "unbound"};
    SlotState &St = slot(S);
    if (Epoch <= St.Epoch)
      return {true, St.Epoch, 0, nullptr}; // already there (or past)
    if (backupOf(S, Epoch, RingSize) != Self)
      return {false, St.Epoch, 0, "wrong member"};
    advanceLocked(S, St, Epoch, Fx);
    E = St.Epoch;
    Dropped = Fx.Discard.size();
  }
  applyEffects(std::move(Fx));
  return {true, E, static_cast<std::int64_t>(Dropped), nullptr};
}

Replica::PullReply Replica::onPull(std::uint64_t S, std::uint64_t Epoch,
                                   std::uint64_t Offset) {
  RoleEffects Fx;
  PullReply R;
  {
    std::lock_guard<SpinLock> G(Lock);
    if (RingSize < 2) {
      R.Err = "unbound";
      return R;
    }
    SlotState &St = slot(S);
    if (Epoch > St.Epoch)
      advanceLocked(S, St, Epoch, Fx);
    R.Epoch = St.Epoch;
    if (primaryOf(S, St.Epoch, RingSize) != Self) {
      R.Err = "not primary";
    } else {
      // The offset cursor skips copies earlier chunks already carried.
      // Iteration order is stable across chunks because any Residents
      // mutation bumps ResidentsVersion, which makes the puller restart
      // the transfer from offset zero.
      R.Ok = true;
      R.Version = St.ResidentsVersion;
      std::uint64_t Skip = Offset;
      for (const auto &[B, N] : St.Residents) {
        if (Skip >= N) {
          Skip -= N;
          continue;
        }
        for (std::uint64_t I = Skip; I != N; ++I) {
          if (R.Tuples.size() >= Config.PullMaxTuples) {
            R.Complete = false;
            break;
          }
          R.Tuples.push_back(B);
        }
        Skip = 0;
        if (!R.Complete)
          break;
      }
    }
  }
  applyEffects(std::move(Fx));
  return R;
}

void Replica::noteTaken(std::span<const gc::Value> Fields) {
  if (inert() || Closing.load(std::memory_order_acquire))
    return;
  Tuple T;
  T.reserve(Fields.size());
  for (gc::Value V : Fields)
    T.emplace_back(V);
  std::optional<std::uint64_t> Key = routeKey(T);
  if (!Key)
    return;
  std::string Bytes = encodeFields(T);
  std::uint64_t S, E;
  std::size_t Peer;
  {
    std::lock_guard<SpinLock> G(Lock);
    S = *Key % RingSize;
    SlotState &St = slot(S);
    E = St.Epoch;
    if (primaryOf(S, E, RingSize) != Self)
      return; // strays in a demoted member's space are not replicated
    auto It = St.Residents.find(Bytes);
    if (It == St.Residents.end())
      return; // locally seeded, never replicated: nothing to retract
    if (--It->second == 0)
      St.Residents.erase(It);
    ++St.ResidentsVersion;
    Peer = backupOf(S, E, RingSize);
  }
  wire::Writer W(wire::Op::RepRetract);
  stampFlow(W);
  W.fixnum(static_cast<std::int64_t>(S));
  W.fixnum(static_cast<std::int64_t>(E));
  if (!writeTupleFields(W, T))
    return;
  std::uint64_t PeerE = 0;
  switch (forward(Peer, W, Config.ForwardTimeoutNanos, &PeerE)) {
  case ForwardResult::Ok:
    Stats.Forwards.fetch_add(1, std::memory_order_relaxed);
    if (VirtualProcessor *Vp = currentVp())
      Vp->stats().ReplForwards.inc();
    STING_TRACE_EVENT(ReplForward, 0, replPayload(S, true, E));
    break;
  case ForwardResult::PeerDown:
    // The §14 retract window: if this member dies before the backup
    // learns, promotion can resurrect one already-delivered tuple.
    Stats.ForwardFailures.fetch_add(1, std::memory_order_relaxed);
    break;
  case ForwardResult::PeerStale:
    adoptAtLeast(S, std::max(E + 1, PeerE));
    break;
  }
}

bool Replica::noteRestored(std::span<const gc::Value> Fields) {
  if (inert() || Closing.load(std::memory_order_acquire))
    return true;
  Tuple T;
  T.reserve(Fields.size());
  for (gc::Value V : Fields)
    T.emplace_back(V);
  std::optional<std::uint64_t> Key = routeKey(T);
  if (!Key)
    return true;
  std::string Bytes = encodeFields(T);
  std::uint64_t S, E;
  std::size_t Peer;
  bool IsPrimary;
  {
    std::lock_guard<SpinLock> G(Lock);
    S = *Key % RingSize;
    SlotState &St = slot(S);
    E = St.Epoch;
    IsPrimary = primaryOf(S, E, RingSize) == Self;
    if (IsPrimary) {
      ++St.Residents[Bytes]; // undoing noteTaken's decrement
      ++St.ResidentsVersion;
      Peer = backupOf(S, E, RingSize);
    } else {
      Peer = primaryOf(S, E, RingSize);
    }
  }
  wire::Writer W(wire::Op::RepPut);
  stampFlow(W);
  W.fixnum(static_cast<std::int64_t>(S));
  W.fixnum(static_cast<std::int64_t>(E));
  W.fixnum(IsPrimary ? 1 : 0);
  if (!writeTupleFields(W, T))
    return true;
  std::uint64_t PeerE = 0;
  ForwardResult FR = forward(Peer, W, Config.ForwardTimeoutNanos, &PeerE);
  if (IsPrimary) {
    // Restore the backup copy; the caller re-deposits locally either way.
    if (FR == ForwardResult::Ok) {
      Stats.Forwards.fetch_add(1, std::memory_order_relaxed);
      if (VirtualProcessor *Vp = currentVp())
        Vp->stats().ReplForwards.inc();
      STING_TRACE_EVENT(ReplForward, 0, replPayload(S, false, E));
    } else {
      Stats.ForwardFailures.fetch_add(1, std::memory_order_relaxed);
      if (FR == ForwardResult::PeerStale)
        adoptAtLeast(S, std::max(E + 1, PeerE));
    }
    return true;
  }
  // Demoted while the delivery was in flight: route the tuple to the
  // member takes now ask — a full primary deposit, which forwards a copy
  // right back to us as its backup. Only keep it locally when even that
  // fails (conservation beats placement).
  if (FR == ForwardResult::Ok)
    return false;
  if (FR == ForwardResult::PeerStale)
    adoptAtLeast(S, std::max(E + 1, PeerE));
  Stats.ForwardFailures.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Replica::startPull(std::uint64_t S) {
  ThreadRef Prev;
  {
    std::lock_guard<SpinLock> G(Lock);
    if (Closing.load(std::memory_order_acquire) || RingSize < 2)
      return;
    SlotState &St = slot(S);
    if (St.PullRunning || !St.NeedsCatchup)
      return;
    St.PullRunning = true;
    Prev = std::move(St.Puller);
  }
  // PullRunning gates one live helper per slot, so Prev (if any) already
  // dropped the flag and is at most a return-statement away from done:
  // joining it here reclaims its thread state and bounds helper refs to
  // one per slot across arbitrarily many demotions.
  if (Prev)
    TC::threadWaitFor(*Prev, Deadline::never());
  SpawnOptions Opts;
  Opts.Group = &Vm->rootGroup();
  ThreadRef H = TC::forkThread(
      [this, S]() -> AnyValue {
        runPull(S);
        return AnyValue();
      },
      Opts);
  std::lock_guard<SpinLock> G(Lock);
  slot(S).Puller = std::move(H);
}

void Replica::runPull(std::uint64_t S) {
  ParkList Nap;
  // One transfer is a version-stable sequence of chunks (RepState carries
  // the primary's ledger version; a mismatch means the offset cursor lost
  // its meaning, restart) that *replaces* the slot's side store — it never
  // adds to it. The StoreGen fence rejects an install any live forwarded
  // put/retract raced: those copies came through both the snapshot and
  // the live channel, and an additive install would double-count them,
  // materializing duplicates at the next promotion.
  std::vector<std::string> Stage; ///< chunks accumulated so far
  std::uint64_t Offset = 0;       ///< copies Stage already covers
  std::uint64_t WantVersion = 0;  ///< ledger version chunk 0 reported
  std::uint64_t GenAtStart = 0;   ///< StoreGen when the transfer began
  bool InTransfer = false;
  for (int Attempt = 0; Attempt != 32; ++Attempt) {
    if (Closing.load(std::memory_order_acquire))
      break;
    std::uint64_t E;
    std::size_t Peer;
    {
      std::lock_guard<SpinLock> G(Lock);
      SlotState &St = slot(S);
      if (!St.NeedsCatchup || primaryOf(S, St.Epoch, RingSize) == Self) {
        St.PullRunning = false;
        return;
      }
      E = St.Epoch;
      Peer = primaryOf(S, E, RingSize);
      if (!InTransfer) {
        // Fresh transfer: record the fence before the first chunk can be
        // requested, so any forward landing after this point aborts it.
        GenAtStart = St.StoreGen;
        Stage.clear();
        Offset = 0;
      }
    }
    wire::Writer W(wire::Op::RepPull);
    W.fixnum(static_cast<std::int64_t>(S));
    W.fixnum(static_cast<std::int64_t>(E));
    W.fixnum(static_cast<std::int64_t>(Offset));
    net::ConnectionPool *P;
    {
      std::lock_guard<SpinLock> G(Lock);
      P = Peers.get();
    }
    std::vector<std::uint8_t> Reply;
    bool Got = P && P->requestFrom(Peer, W, Reply,
                                   Deadline::in(Config.PullTimeoutNanos)) ==
                        net::RequestStatus::Ok;
    bool ChunkOk = false, Complete = false;
    if (Got) {
      wire::Reader Rd(Reply.data(), Reply.size());
      Got = Rd.ok() && Rd.op() == wire::Op::RepState;
      if (Got) {
        Rd.takeFlow();
        wire::ReadField SlotF, EpochF, CompleteF, VersionF;
        Got = Rd.next(SlotF) && SlotF.T == wire::Tag::Fixnum &&
              Rd.next(EpochF) && EpochF.T == wire::Tag::Fixnum &&
              Rd.next(CompleteF) && CompleteF.T == wire::Tag::Fixnum &&
              Rd.next(VersionF) && VersionF.T == wire::Tag::Fixnum;
        if (Got) {
          Complete = CompleteF.Num != 0;
          std::uint64_t V = static_cast<std::uint64_t>(VersionF.Num);
          if (InTransfer && V != WantVersion) {
            // The primary's ledger moved under the cursor: the chunks no
            // longer tile one snapshot. Start over.
            InTransfer = false;
          } else {
            if (!InTransfer) {
              WantVersion = V;
              InTransfer = true;
            }
            ChunkOk = true;
            wire::ReadField F;
            while (Rd.next(F))
              if (F.T == wire::Tag::Blob)
                Stage.emplace_back(F.Bytes);
            Offset = Stage.size();
          }
          RoleEffects Fx;
          std::size_t Installed = 0;
          bool Finished = false, Rose = false;
          {
            std::lock_guard<SpinLock> G(Lock);
            SlotState &St = slot(S);
            std::uint64_t PeerE = static_cast<std::uint64_t>(EpochF.Num);
            if (PeerE > St.Epoch)
              advanceLocked(S, St, PeerE, Fx);
            if (primaryOf(S, St.Epoch, RingSize) == Self) {
              // We rose mid-pull; the snapshot is someone's stale view.
              St.PullRunning = false;
              Rose = true;
            } else if (ChunkOk && Complete) {
              if (St.StoreGen != GenAtStart) {
                // A live forward raced the transfer; its copy may also be
                // in the snapshot. Installing would double-count it —
                // restart against a still store instead.
                InTransfer = false;
              } else {
                St.Store.clear();
                for (const std::string &B : Stage)
                  ++St.Store[B];
                // Every tombstone predates the snapshot (the gen fence
                // held), and its retract left the primary's ledger before
                // the snapshot was cut: already reflected, drop them.
                St.Tombstones.clear();
                ++St.StoreGen;
                Installed = Stage.size();
                St.NeedsCatchup = false;
                St.PullRunning = false;
                Finished = true;
              }
            }
          }
          applyEffects(std::move(Fx));
          if (Rose)
            return;
          if (Finished) {
            if (Installed) {
              Stats.CatchupTuples.fetch_add(Installed,
                                            std::memory_order_relaxed);
              if (VirtualProcessor *Vp = currentVp())
                Vp->stats().ReplCatchupTuples.add(Installed);
            }
            return;
          }
          if (ChunkOk && !Complete)
            continue; // mid-transfer: fetch the next chunk right away
        }
      }
    }
    // Pull failed, the ledger moved, or a forward raced the install:
    // pause, then retry from a clean slate.
    InTransfer = false;
    Nap.awaitUntil(
        [&] { return Closing.load(std::memory_order_acquire); }, &Nap,
        Deadline::in(50'000'000));
  }
  std::lock_guard<SpinLock> G(Lock);
  slot(S).PullRunning = false; // gave up; stays catch-up-owed (visible)
}

} // namespace sting::dist
