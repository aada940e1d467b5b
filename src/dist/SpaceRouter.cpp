//===- dist/SpaceRouter.cpp - Sharded tuple-space router ----------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "dist/SpaceRouter.h"

#include "core/Current.h"
#include "core/Gc.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "gc/GlobalHeap.h"
#include "net/Services.h"
#include "obs/Flow.h"
#include "obs/SchedStats.h"
#include "obs/TraceBuffer.h"

#include <cerrno>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace sting::dist {

namespace wire = net::wire;
using net::BufferedConn;
using net::Socket;
using TC = ThreadController;

using net::adoptFlow;
using net::sendError;
using net::sendPayload;
using net::stampReplyFlow;

namespace {

/// Packs the RouterRoute trace payload: shard index (0xffff = fan-out, no
/// single home) in the low 16 bits, the leg count above.
std::uint32_t routePayload(std::size_t Shard, std::size_t Legs) {
  std::uint32_t S = Shard > 0xffff ? 0xffffu : static_cast<std::uint32_t>(Shard);
  return S | (static_cast<std::uint32_t>(Legs & 0xffff) << 16);
}

} // namespace

/// One blocking-match episode, pinned in the caller's stack frame. Wakers
/// (channel pumps) reach it only through an attached Leg, under that leg's
/// channel lock; once the caller detaches every leg the record is private
/// again. Lock order: Channel::Lock -> RouterOp::Lock.
struct SpaceRouter::RouterOp {
  SpinLock Lock;
  ParkList Done;
  bool HasMatch = false;
  Tuple Delivered;        ///< decoded wire fields (pending text/blob)
  std::uint64_t Flow = 0; ///< depositor's flow, carried by the Deliver
  std::size_t LegsLive = 0;
};

/// One registration leg on one shard. Owned by its channel's Legs map;
/// every field is guarded by the channel lock. A leg resolves exactly once
/// — Deliver, Retracted(wasArmed), or orphaned by channel death — which is
/// the router half of the wire-level Armed→Delivered discipline.
struct SpaceRouter::Leg {
  std::uint64_t Id = 0;
  RouterOp *Op = nullptr; ///< null once the caller detached
  bool Remove = false;
  bool RetractSent = false;
  /// Retracted(wasArmed=false) arrived before the Deliver it promises
  /// (the two are queued by different shard threads, so their order is
  /// not guaranteed): keep the leg until the Deliver shows up.
  bool DeliverOwed = false;
  std::vector<std::uint8_t> RegFrame; ///< Register payload, re-sent on reconnect
};

/// The per-shard registration channel: a pump thread owning the socket,
/// plus the lock-guarded leg table and outbound frame queue that caller
/// threads feed. The pump alternates queue drains with short timed reads,
/// so push dispatch, reconnects and shutdown all make progress within
/// ChannelPollNanos.
class SpaceRouter::Channel {
public:
  Channel(SpaceRouter &R, std::size_t Index) : R(R), Index(Index) {}

  /// Queues the leg's Register frame and takes ownership of the leg.
  /// \returns false (leg destroyed) when the router is closing.
  bool arm(std::unique_ptr<Leg> L) {
    bool NeedFork = false;
    {
      std::lock_guard<SpinLock> G(Lock);
      if (R.Closing.load(std::memory_order_acquire))
        return false;
      OutQ.push_back(L->RegFrame);
      std::uint64_t Id = L->Id;
      Legs.emplace(Id, L.release());
      if (!Started) {
        Started = true;
        NeedFork = true;
      }
    }
    if (NeedFork) {
      SpawnOptions Opts;
      Opts.Group = &R.Vm->rootGroup();
      ThreadRef P = TC::forkThread(
          [this]() -> AnyValue {
            run();
            return AnyValue();
          },
          Opts);
      std::lock_guard<SpinLock> G(Lock);
      Pump = std::move(P);
    }
    return true;
  }

  /// The caller's exit: unhook its op from this channel's leg and queue a
  /// Retract for a still-unresolved one. After detach returns for every
  /// armed leg, no pump references the op.
  void detach(std::uint64_t Id) {
    std::unique_ptr<Leg> Local;
    {
      std::lock_guard<SpinLock> G(Lock);
      auto It = Legs.find(Id);
      if (It == Legs.end())
        return;
      Leg *L = It->second;
      L->Op = nullptr;
      if (L->DeliverOwed || L->RetractSent)
        return;
      // If the Register frame is still queued — the channel has not
      // connected yet, or the pump has not drained it — the shard has
      // never seen this leg. Retract it locally by unqueueing the frame:
      // no delivery can ever fire, so the leg resolves here, without a
      // wire round-trip (and without the reconnect path misreading the
      // pending Retract as an unresolvable tombstone).
      for (auto QIt = OutQ.begin(); QIt != OutQ.end(); ++QIt) {
        if (*QIt == L->RegFrame) {
          OutQ.erase(QIt);
          Legs.erase(It);
          Local.reset(L);
          break;
        }
      }
      if (!Local) {
        L->RetractSent = true;
        wire::Writer W(wire::Op::Retract);
        W.fixnum(static_cast<std::int64_t>(Id));
        OutQ.push_back(W.payload());
      }
    }
    if (Local) {
      R.Stats.Retracts.fetch_add(1, std::memory_order_relaxed);
      if (VirtualProcessor *Vp = currentVp())
        Vp->stats().RouterRetracts.inc();
      STING_TRACE_EVENT(RouterRetract, 0, routePayload(Index, 0) | (1u << 16));
    }
  }

  std::size_t legCount() {
    std::lock_guard<SpinLock> G(Lock);
    return Legs.size();
  }

  /// Blocks until the pump thread (if ever started) has exited.
  void join() {
    for (;;) {
      ThreadRef P;
      {
        std::lock_guard<SpinLock> G(Lock);
        if (!Started)
          return;
        P = Pump;
      }
      if (P) {
        TC::threadWaitFor(*P, Deadline::never());
        return;
      }
      TC::yieldProcessor(); // arm() is mid-fork; the ref lands shortly
    }
  }

private:
  void run();
  bool handshake(BufferedConn &Conn);
  bool drainOut(BufferedConn &Conn);
  void dispatch(wire::Reader &R, std::uint64_t Flow);
  void failAllLegs();
  void resolveAndWake(Leg *L, bool Delivered);

  SpaceRouter &R;
  std::size_t Index;

  SpinLock Lock;
  std::unordered_map<std::uint64_t, Leg *> Legs;
  std::deque<std::vector<std::uint8_t>> OutQ;
  bool Started = false;
  ThreadRef Pump;
  ParkList Sleeper; ///< pump-only: timed park between connect rounds
};

/// Removes \p L from bookkeeping (caller holds the channel lock and will
/// erase/delete it): settles the op side and collects the wake for the
/// caller to fire after unlocking. Delivered legs updated their op before
/// calling this.
void SpaceRouter::Channel::resolveAndWake(Leg *L, bool /*Delivered*/) {
  if (RouterOp *Op = L->Op) {
    {
      std::lock_guard<SpinLock> G(Op->Lock);
      --Op->LegsLive;
    }
    L->Op = nullptr;
    // Waking under the channel lock is safe (ParkList wakes never take
    // these locks) and keeps leg teardown single-pass.
    Op->Done.wakeOne();
  }
}

void SpaceRouter::Channel::failAllLegs() {
  std::vector<Leg *> Dead;
  {
    std::lock_guard<SpinLock> G(Lock);
    for (auto &[Id, L] : Legs) {
      (void)Id;
      R.Stats.Orphans.fetch_add(1, std::memory_order_relaxed);
      resolveAndWake(L, false);
      Dead.push_back(L);
    }
    Legs.clear();
    OutQ.clear();
  }
  for (Leg *L : Dead)
    delete L;
}

bool SpaceRouter::Channel::handshake(BufferedConn &Conn) {
  wire::Writer W(wire::Op::Hello);
  if (std::uint64_t F = obs::currentFlowId())
    W.flow(F);
  W.fixnum(WireVersion);
  // Replication: carry the promoted-slot view as (slot, epoch) pairs, so
  // a rejoining stale primary demotes itself before this connection can
  // arm a registration against resurrected tuples.
  if (R.replicated())
    for (std::size_t S = 0; S != R.Config.Shards.size(); ++S)
      if (std::uint64_t E = R.slotEpoch(S)) {
        W.fixnum(static_cast<std::int64_t>(S));
        W.fixnum(static_cast<std::int64_t>(E));
      }
  if (!Conn.writeFrame(W.payload().data(), W.payload().size()) ||
      !Conn.flush())
    return false;
  std::vector<std::uint8_t> Frame;
  if (!Conn.readFrame(Frame,
                      Deadline::in(R.Config.Shards[Index].RequestTimeoutNanos)))
    return false;
  wire::Reader Rd(Frame.data(), Frame.size());
  if (!Rd.ok() || Rd.op() != wire::Op::HelloOk)
    return false; // Err (version mismatch) or garbage: clean refusal
  Rd.takeFlow();
  wire::ReadField F;
  return Rd.next(F) && F.T == wire::Tag::Fixnum && F.Num == WireVersion;
}

bool SpaceRouter::Channel::drainOut(BufferedConn &Conn) {
  for (;;) {
    std::vector<std::uint8_t> Frame;
    {
      std::lock_guard<SpinLock> G(Lock);
      if (OutQ.empty())
        return true;
      Frame = std::move(OutQ.front());
      OutQ.pop_front();
    }
    if (!Conn.writeFrame(Frame.data(), Frame.size()) || !Conn.flush())
      return false;
  }
}

void SpaceRouter::Channel::run() {
  BufferedConn Conn{Socket()};
  bool Up = false;
  net::CircuitBreaker &Breaker = R.Pool.breaker(Index);
  const net::ClientConfig &CC = R.Config.Shards[Index];
  while (!R.Closing.load(std::memory_order_acquire)) {
    if (!Up) {
      bool Probe = false;
      bool Ok = Breaker.tryAdmit(Probe);
      if (Ok) {
        Socket S = Socket::connectUntil(*R.Io, CC.Host.c_str(), CC.Port,
                                        Deadline::in(CC.ConnectTimeoutNanos));
        Ok = S.valid();
        if (Ok) {
          Conn = BufferedConn(std::move(S), CC.WriteHighWater);
          Ok = handshake(Conn);
        }
        if (Ok)
          Breaker.recordSuccess();
        else
          Breaker.recordFailure();
      }
      if (!Ok) {
        // Fail the queued legs *now*: their callers get Unavailable and
        // can reroute, instead of hanging for the retry pause.
        Conn = BufferedConn(Socket());
        failAllLegs();
        Sleeper.awaitUntil(
            [&] { return R.Closing.load(std::memory_order_acquire); }, this,
            Deadline::in(R.Config.ChannelRetryNanos));
        continue;
      }
      Up = true;
      // Re-arm every live leg on the fresh connection: the shard's
      // per-connection registry started empty, so each unresolved leg
      // re-sends its Register. Tombstones awaiting a Deliver from the
      // *dead* connection can never be paid; orphan them.
      {
        std::lock_guard<SpinLock> G(Lock);
        OutQ.clear();
        for (auto It = Legs.begin(); It != Legs.end();) {
          Leg *L = It->second;
          if (L->DeliverOwed || L->RetractSent) {
            R.Stats.Orphans.fetch_add(1, std::memory_order_relaxed);
            resolveAndWake(L, false);
            It = Legs.erase(It);
            delete L;
            continue;
          }
          OutQ.push_back(L->RegFrame);
          ++It;
        }
      }
    }
    if (!drainOut(Conn)) {
      Up = false;
      continue;
    }
    std::vector<std::uint8_t> Frame;
    if (!Conn.readFrame(Frame, Deadline::in(R.Config.ChannelPollNanos))) {
      if (errno == ETIMEDOUT)
        continue;
      Up = false; // EOF/reset: reconnect lap re-arms
      continue;
    }
    wire::Reader Rd(Frame.data(), Frame.size());
    if (!Rd.ok()) {
      Up = false; // framing is lost; resync with a fresh connection
      continue;
    }
    std::uint64_t Flow = Rd.takeFlow();
    dispatch(Rd, Flow);
  }
  failAllLegs(); // shutdown: parked callers wake and report Canceled
}

void SpaceRouter::Channel::dispatch(wire::Reader &Rd, std::uint64_t Flow) {
  switch (Rd.op()) {
  case wire::Op::Deliver: {
    wire::ReadField IdF;
    Tuple T;
    if (!Rd.next(IdF) || IdF.T != wire::Tag::Fixnum ||
        !wire::readTuple(Rd, T))
      return;
    std::uint64_t Id = static_cast<std::uint64_t>(IdF.Num);
    bool Redeposit = false;
    {
      std::lock_guard<SpinLock> G(Lock);
      auto It = Legs.find(Id);
      if (It == Legs.end())
        return; // the state machine erases a leg only once it cannot
                // receive a Deliver; an unknown id is a no-op
      Leg *L = It->second;
      R.Stats.Deliveries.fetch_add(1, std::memory_order_relaxed);
      if (RouterOp *Op = L->Op) {
        bool Won;
        {
          std::lock_guard<SpinLock> OG(Op->Lock);
          Won = !Op->HasMatch;
          if (Won) {
            Op->HasMatch = true;
            Op->Delivered = std::move(T);
            Op->Flow = Flow;
          }
          --Op->LegsLive;
        }
        L->Op = nullptr;
        Op->Done.wakeOne();
        // A second winner (two shards delivered before any retract
        // landed): this leg's take must go back into the logical space.
        Redeposit = !Won && L->Remove;
      } else {
        // Caller already left (timeout/retract race): a losing take
        // delivery is re-deposited, a read delivery needs nothing.
        Redeposit = L->Remove;
      }
      Legs.erase(It);
      delete L;
    }
    if (Redeposit)
      R.redeposit(std::move(T));
    return;
  }
  case wire::Op::Retracted: {
    wire::ReadField IdF, ArmedF;
    if (!Rd.next(IdF) || IdF.T != wire::Tag::Fixnum || !Rd.next(ArmedF) ||
        (ArmedF.T != wire::Tag::True && ArmedF.T != wire::Tag::False))
      return;
    std::uint64_t Id = static_cast<std::uint64_t>(IdF.Num);
    bool WasArmed = ArmedF.T == wire::Tag::True;
    std::lock_guard<SpinLock> G(Lock);
    auto It = Legs.find(Id);
    if (It == Legs.end())
      return;
    Leg *L = It->second;
    if (WasArmed) {
      // The shard's retract-or-observe promise: no delivery fired, none
      // will. Either our Retract won (count it) or the registration was
      // refused outright (an orphaned leg).
      if (L->RetractSent) {
        R.Stats.Retracts.fetch_add(1, std::memory_order_relaxed);
        if (VirtualProcessor *Vp = currentVp())
          Vp->stats().RouterRetracts.inc();
        STING_TRACE_EVENT(RouterRetract, 0,
                          routePayload(Index, 0) | (1u << 16));
      } else {
        R.Stats.Orphans.fetch_add(1, std::memory_order_relaxed);
      }
      resolveAndWake(L, false);
      Legs.erase(It);
      delete L;
    } else {
      // A delivery owns the registration; its Deliver frame may still be
      // behind us (different shard-side queuing threads). Hold the leg.
      L->DeliverOwed = true;
    }
    return;
  }
  case wire::Op::Overload:
    // The shard shed this connection; nothing useful follows.
    errno = EAGAIN;
    break;
  default:
    break; // stray HelloOk/Err replies carry no registration state
  }
}

SpaceRouter::SpaceRouter(VirtualMachine &Vm, IoService &Io,
                         RouterConfig Config)
    : Vm(&Vm), Io(&Io), Config(std::move(Config)),
      Pool(Io, [this] {
        net::PoolConfig PC;
        PC.MaxConnections = this->Config.MaxConnectionsPerShard;
        PC.Endpoints = this->Config.Shards;
        return PC;
      }()) {
  STING_CHECK(!this->Config.Shards.empty(), "router needs at least one shard");
  STING_CHECK(this->Config.ReplicationFactor >= 1 &&
                  this->Config.ReplicationFactor <= 2,
              "chain-of-two supports replication factors 1 and 2");
  const std::size_t N = this->Config.Shards.size();
  Channels.reserve(N);
  for (std::size_t I = 0; I != N; ++I)
    Channels.push_back(std::make_unique<Channel>(*this, I));
  SlotEpochs = std::make_unique<std::atomic<std::uint64_t>[]>(N);
  for (std::size_t I = 0; I != N; ++I)
    SlotEpochs[I].store(0, std::memory_order_relaxed);
}

SpaceRouter::~SpaceRouter() { shutdown(); }

void SpaceRouter::shutdown() {
  Closing.store(true, std::memory_order_release);
  for (auto &Ch : Channels)
    Ch->join();
  std::vector<ThreadRef> Hs;
  {
    std::lock_guard<SpinLock> G(HelperLock);
    Hs.swap(Helpers);
  }
  for (ThreadRef &H : Hs)
    TC::threadWaitFor(*H, Deadline::never());
}

std::size_t SpaceRouter::pendingLegs() const {
  std::size_t N = 0;
  for (const auto &Ch : Channels)
    N += Ch->legCount();
  return N;
}

RouterStatsSnapshot SpaceRouter::statsSnapshot() const {
  RouterStatsSnapshot S;
  S.Routes = Stats.Routes.load(std::memory_order_relaxed);
  S.Fanouts = Stats.Fanouts.load(std::memory_order_relaxed);
  S.Retracts = Stats.Retracts.load(std::memory_order_relaxed);
  S.Failovers = Stats.Failovers.load(std::memory_order_relaxed);
  S.Deliveries = Stats.Deliveries.load(std::memory_order_relaxed);
  S.Redeposits = Stats.Redeposits.load(std::memory_order_relaxed);
  S.Orphans = Stats.Orphans.load(std::memory_order_relaxed);
  S.Promotions = Stats.Promotions.load(std::memory_order_relaxed);
  S.Unreplicated = Stats.Unreplicated.load(std::memory_order_relaxed);
  return S;
}

std::vector<std::size_t>
SpaceRouter::candidates(const std::optional<std::uint64_t> &Key,
                        bool &LeftHome) {
  const std::size_t N = Channels.size();
  LeftHome = false;
  std::vector<std::size_t> C;
  if (Key) {
    std::size_t Home = static_cast<std::size_t>(*Key % N);
    if (Pool.breaker(Home).state() != net::BreakerState::Open) {
      C.push_back(Home);
      return C;
    }
    LeftHome = true; // home down: reroute to every surviving shard
  }
  for (std::size_t S = 0; S != N; ++S)
    if (Pool.breaker(S).state() != net::BreakerState::Open)
      C.push_back(S);
  return C;
}

void SpaceRouter::redeposit(Tuple T) {
  Stats.Redeposits.fetch_add(1, std::memory_order_relaxed);
  // Never from the pump: a unary put parks on the pool. A short-lived
  // helper carries it; shutdown joins helpers after the channels, so a
  // redeposit racing teardown resolves (possibly as Canceled) first.
  SpawnOptions Opts;
  Opts.Group = &Vm->rootGroup();
  ThreadRef H = TC::forkThread(
      [this, T = std::move(T)]() mutable -> AnyValue {
        (void)put(std::move(T));
        return AnyValue();
      },
      Opts);
  std::lock_guard<SpinLock> G(HelperLock);
  Helpers.push_back(std::move(H));
}

Status SpaceRouter::put(Tuple T) {
  if (Closing.load(std::memory_order_acquire))
    return Status::Canceled;
  for (const Field &F : T)
    if (F.isFormal())
      return Status::Error; // formals belong in templates
  wire::Writer W(wire::Op::TsOut);
  if (std::uint64_t F = obs::currentFlowId())
    W.flow(F);
  if (!writeTupleFields(W, T))
    return Status::Error; // live threads / thunks never leave the process
  std::optional<std::uint64_t> Key = routeKey(T);
  STING_CHECK(Key, "datum-led tuple must have a route key");
  if (replicated())
    return putReplicated(T, *Key);
  const std::size_t N = Channels.size();
  const std::size_t Home = static_cast<std::size_t>(*Key % N);
  Stats.Routes.fetch_add(1, std::memory_order_relaxed);
  if (VirtualProcessor *Vp = currentVp())
    Vp->stats().RouterRoutes.inc();
  bool Attempted = false;
  net::RequestStatus Last = net::RequestStatus::BreakerOpen;
  for (std::size_t I = 0; I != N; ++I) {
    std::size_t S = (Home + I) % N;
    if (Pool.breaker(S).state() == net::BreakerState::Open)
      continue;
    Attempted = true;
    std::vector<std::uint8_t> Reply;
    Last = Pool.requestFrom(S, W, Reply,
                            Deadline::in(Config.PutTimeoutNanos));
    if (Last != net::RequestStatus::Ok)
      continue; // next shard in ring order; the breaker learned already
    wire::Reader Rd(Reply.data(), Reply.size());
    if (!Rd.ok() || Rd.op() != wire::Op::TsAck)
      return Status::Error; // an application-level Err repeats anywhere
    STING_TRACE_EVENT(RouterRoute, 0, routePayload(S, 1));
    if (S != Home) {
      Stats.Failovers.fetch_add(1, std::memory_order_relaxed);
      if (VirtualProcessor *Vp = currentVp())
        Vp->stats().RouterFailovers.inc();
    }
    return Status::Ok;
  }
  if (!Attempted)
    return Status::Unavailable;
  switch (Last) {
  case net::RequestStatus::Timeout:
    return Status::Timeout;
  case net::RequestStatus::Canceled:
    return Status::Canceled;
  case net::RequestStatus::BreakerOpen:
    return Status::Unavailable;
  default:
    return Status::Error;
  }
}

void SpaceRouter::raiseEpoch(std::size_t Slot, std::uint64_t E) {
  std::uint64_t Cur = SlotEpochs[Slot].load(std::memory_order_acquire);
  while (Cur < E && !SlotEpochs[Slot].compare_exchange_weak(
                        Cur, E, std::memory_order_acq_rel))
    ;
}

bool SpaceRouter::tryPromote(std::size_t Slot, std::uint64_t FromEpoch) {
  const std::size_t N = Channels.size();
  if (slotEpoch(Slot) != FromEpoch)
    return true; // someone already moved the view; caller re-reads
  const std::uint64_t NewE = FromEpoch + 1;
  const std::size_t Backup = primaryOf(Slot, NewE, N);
  if (Pool.breaker(Backup).state() == net::BreakerState::Open)
    return false; // both members down: the slot is unavailable
  wire::Writer W(wire::Op::RepPromote);
  if (std::uint64_t F = obs::currentFlowId())
    W.flow(F);
  W.fixnum(static_cast<std::int64_t>(Slot));
  W.fixnum(static_cast<std::int64_t>(NewE));
  std::vector<std::uint8_t> Reply;
  if (Pool.requestFrom(Backup, W, Reply,
                       Deadline::in(Config.PromoteTimeoutNanos)) !=
      net::RequestStatus::Ok)
    return false;
  wire::Reader Rd(Reply.data(), Reply.size());
  if (!Rd.ok() || Rd.op() != wire::Op::RepAck)
    return false; // refused ("not caught up" / "wrong member")
  Rd.takeFlow();
  wire::ReadField EpochF;
  std::uint64_t Acked = NewE;
  if (Rd.next(EpochF) && EpochF.T == wire::Tag::Fixnum)
    Acked = std::max<std::uint64_t>(NewE, static_cast<std::uint64_t>(EpochF.Num));
  raiseEpoch(Slot, Acked);
  Stats.Promotions.fetch_add(1, std::memory_order_relaxed);
  if (VirtualProcessor *Vp = currentVp())
    Vp->stats().ReplPromotions.inc();
  STING_TRACE_EVENT(ReplPromote, 0,
                    static_cast<std::uint32_t>(Slot & 0xffff) |
                        (static_cast<std::uint32_t>(Acked & 0xffff) << 16));
  // Best-effort fence of the old primary: if it is merely slow (not
  // dead) it must discard its residents now. Its own epoch checks — and
  // the Hello pairs on reconnect — cover the case where this demote
  // never lands.
  const std::size_t Old = primaryOf(Slot, FromEpoch, N);
  if (Pool.breaker(Old).state() != net::BreakerState::Open) {
    wire::Writer DW(wire::Op::RepDemote);
    DW.fixnum(static_cast<std::int64_t>(Slot));
    DW.fixnum(static_cast<std::int64_t>(Acked));
    std::vector<std::uint8_t> DR;
    (void)Pool.requestFrom(Old, DW, DR,
                           Deadline::in(Config.PromoteTimeoutNanos));
  }
  return true;
}

Status SpaceRouter::putReplicated(const Tuple &T, std::uint64_t Key) {
  const std::size_t N = Channels.size();
  const std::size_t Slot = static_cast<std::size_t>(Key % N);
  Stats.Routes.fetch_add(1, std::memory_order_relaxed);
  if (VirtualProcessor *Vp = currentVp())
    Vp->stats().RouterRoutes.inc();
  bool Attempted = false;
  net::RequestStatus Last = net::RequestStatus::BreakerOpen;
  // Bounded retry: each lap either talks to the current primary or
  // advances the epoch view. 2N+2 laps cover every member twice plus the
  // promotion hops; real failovers resolve in two or three.
  for (std::size_t Lap = 0; Lap != 2 * N + 2; ++Lap) {
    if (Closing.load(std::memory_order_acquire))
      return Status::Canceled;
    const std::uint64_t E = slotEpoch(Slot);
    const std::size_t P = primaryOf(Slot, E, N);
    if (Pool.breaker(P).state() == net::BreakerState::Open) {
      if (!tryPromote(Slot, E))
        break; // both members unreachable
      continue;
    }
    wire::Writer W(wire::Op::RepPut);
    if (std::uint64_t F = obs::currentFlowId())
      W.flow(F);
    W.fixnum(static_cast<std::int64_t>(Slot));
    W.fixnum(static_cast<std::int64_t>(E));
    W.fixnum(0); // router deposit, not a forwarded copy
    if (!writeTupleFields(W, T))
      return Status::Error;
    Attempted = true;
    std::vector<std::uint8_t> Reply;
    Last = Pool.requestFrom(P, W, Reply, Deadline::in(Config.PutTimeoutNanos));
    if (Last != net::RequestStatus::Ok) {
      (void)tryPromote(Slot, E); // the breaker learned; try the backup
      continue;
    }
    wire::Reader Rd(Reply.data(), Reply.size());
    if (!Rd.ok())
      return Status::Error;
    if (Rd.op() == wire::Op::RepAck) {
      Rd.takeFlow();
      wire::ReadField EpochF, InfoF;
      if (Rd.next(EpochF) && EpochF.T == wire::Tag::Fixnum)
        raiseEpoch(Slot, static_cast<std::uint64_t>(EpochF.Num));
      bool Replicated = Rd.next(InfoF) && InfoF.T == wire::Tag::Fixnum &&
                        (InfoF.Num & 1) != 0;
      if (!Replicated)
        Stats.Unreplicated.fetch_add(1, std::memory_order_relaxed);
      STING_TRACE_EVENT(RouterRoute, 0, routePayload(P, 1));
      if (P != Slot) { // an odd epoch serves off the home member
        Stats.Failovers.fetch_add(1, std::memory_order_relaxed);
        if (VirtualProcessor *Vp = currentVp())
          Vp->stats().RouterFailovers.inc();
      }
      return Status::Ok;
    }
    if (Rd.op() == wire::Op::Err) {
      Rd.takeFlow();
      wire::ReadField F;
      if (Rd.next(F) && F.T == wire::Tag::Text && F.Bytes == "stale epoch") {
        // The member knows a later epoch than we do; adopt it and retry.
        // The refusal's trailing fixnum carries the member's epoch so a
        // view arbitrarily far behind converges in one lap — without it
        // the lap budget caps how much history a fresh router can absorb.
        std::uint64_t Next = E + 1;
        wire::ReadField EpochF;
        if (Rd.next(EpochF) && EpochF.T == wire::Tag::Fixnum)
          Next = std::max<std::uint64_t>(
              Next, static_cast<std::uint64_t>(EpochF.Num));
        raiseEpoch(Slot, Next);
        continue;
      }
    }
    return Status::Error; // "no replica" / malformed: not retriable
  }
  if (!Attempted)
    return Status::Unavailable;
  switch (Last) {
  case net::RequestStatus::Timeout:
    return Status::Timeout;
  case net::RequestStatus::Canceled:
    return Status::Canceled;
  case net::RequestStatus::BreakerOpen:
    return Status::Unavailable;
  default:
    return Status::Error;
  }
}

Status SpaceRouter::matchUntil(Tuple Template, bool Remove, Deadline D,
                               Match &Out) {
  if (Closing.load(std::memory_order_acquire))
    return Status::Canceled;
  std::optional<std::uint64_t> Key = routeKey(Template);
  Stats.Routes.fetch_add(1, std::memory_order_relaxed);
  if (VirtualProcessor *Vp = currentVp())
    Vp->stats().RouterRoutes.inc();

  if (replicated() && Key) {
    // Replicated keyed match: register on the slot's current primary only
    // (the backup's copies are passive — matching there would double-
    // deliver). When the leg dies with the deadline unspent the primary
    // went away, so promote and re-arm at the new epoch. Each round uses
    // a fresh id: the old registration may still be armed on a merely
    // slow shard, and shards refuse duplicate ids.
    const std::size_t N = Channels.size();
    const std::size_t Slot = static_cast<std::size_t>(*Key % N);
    for (;;) {
      if (Closing.load(std::memory_order_acquire))
        return Status::Canceled;
      const std::uint64_t E = slotEpoch(Slot);
      const std::size_t P = primaryOf(Slot, E, N);
      if (Pool.breaker(P).state() == net::BreakerState::Open) {
        if (!tryPromote(Slot, E))
          return Status::Unavailable; // both members unreachable
        continue;
      }
      const std::uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
      wire::Writer W(wire::Op::Register);
      if (std::uint64_t F = obs::currentFlowId())
        W.flow(F);
      W.fixnum(static_cast<std::int64_t>(Id));
      W.fixnum(Remove ? 1 : 0);
      if (!writeTupleFields(W, Template))
        return Status::Error;
      STING_TRACE_EVENT(RouterRoute, 0, routePayload(P, 1));
      if (P != Slot) { // an odd epoch serves off the home member
        Stats.Failovers.fetch_add(1, std::memory_order_relaxed);
        if (VirtualProcessor *Vp = currentVp())
          Vp->stats().RouterFailovers.inc();
      }
      Status St = matchOnce({P}, Template, W.payload(), Id, Remove, D, Out);
      if (St != Status::Unavailable)
        return St;
      if (D.expired())
        return Status::Timeout;
      (void)tryPromote(Slot, E);
    }
  }

  const std::uint64_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  wire::Writer W(wire::Op::Register);
  if (std::uint64_t F = obs::currentFlowId())
    W.flow(F);
  W.fixnum(static_cast<std::int64_t>(Id));
  W.fixnum(Remove ? 1 : 0);
  if (!writeTupleFields(W, Template))
    return Status::Error;
  bool LeftHome = false;
  std::vector<std::size_t> Cands = candidates(Key, LeftHome);
  if (Cands.empty())
    return Status::Unavailable;
  STING_TRACE_EVENT(
      RouterRoute, 0,
      routePayload(Key ? static_cast<std::size_t>(*Key % Channels.size())
                       : 0xffffu,
                   Cands.size()));
  if (LeftHome) {
    Stats.Failovers.fetch_add(1, std::memory_order_relaxed);
    if (VirtualProcessor *Vp = currentVp())
      Vp->stats().RouterFailovers.inc();
  }
  if (Cands.size() > 1) {
    Stats.Fanouts.fetch_add(Cands.size(), std::memory_order_relaxed);
    if (VirtualProcessor *Vp = currentVp())
      Vp->stats().RouterFanouts.add(Cands.size());
  }
  return matchOnce(Cands, Template, W.payload(), Id, Remove, D, Out);
}

Status SpaceRouter::matchOnce(const std::vector<std::size_t> &Cands,
                              const Tuple &Template,
                              const std::vector<std::uint8_t> &RegFrame,
                              std::uint64_t Id, bool Remove, Deadline D,
                              Match &Out) {
  RouterOp Op;
  Op.LegsLive = Cands.size();
  std::vector<std::size_t> Armed;
  Armed.reserve(Cands.size());
  for (std::size_t S : Cands) {
    auto L = std::make_unique<Leg>();
    L->Id = Id;
    L->Op = &Op;
    L->Remove = Remove;
    L->RegFrame = RegFrame;
    if (Channels[S]->arm(std::move(L))) {
      Armed.push_back(S);
    } else {
      std::lock_guard<SpinLock> G(Op.Lock);
      --Op.LegsLive;
    }
  }

  WaitResult WR = Op.Done.awaitUntil(
      [&] {
        std::lock_guard<SpinLock> G(Op.Lock);
        return Op.HasMatch || Op.LegsLive == 0;
      },
      &Op, D);
  for (std::size_t S : Armed)
    Channels[S]->detach(Id);
  // Every leg is detached: Op is private to this frame again.

  if (Op.HasMatch) {
    // Resolve the delivered wire fields into shared-heap values. Root the
    // output slots first: each intern/string allocation may collect, and
    // earlier values must survive later allocations.
    gc::GlobalHeap &H = sharedHeap();
    Out.Fields.assign(Op.Delivered.size());
    Out.Flow = Op.Flow;
    for (gc::Value &Slot : Out.Fields)
      H.addRoot(&Slot);
    for (std::size_t I = 0; I != Op.Delivered.size(); ++I) {
      Field &F = Op.Delivered[I];
      if (F.hasPendingText())
        Out.Fields[I] = H.intern(F.pendingText());
      else if (F.hasPendingBlob())
        Out.Fields[I] = H.makeStringShared(F.pendingBlob());
      else
        Out.Fields[I] = F.value();
    }
    Out.bindFormals(Template);
    for (gc::Value &Slot : Out.Fields)
      H.removeRoot(&Slot);
    // The data's causal history crosses the shard hop with it, exactly
    // like the local facade's match-flow adoption.
    adoptFlow(Out.Flow);
    return Status::Ok;
  }
  if (Closing.load(std::memory_order_acquire) || Io->stopping())
    return Status::Canceled;
  if (WR == WaitResult::Timeout)
    return Status::Timeout;
  return Status::Unavailable; // every leg died with the deadline unspent
}

net::Server::Handler routerHandler(SpaceRouter &Router) {
  return [&Router](BufferedConn &C) {
    auto Reason = [](Status St) {
      return St == Status::Ok ? nullptr : statusName(St);
    };
    const net::TuplePutFn Put = [&](Tuple T) {
      return Reason(Router.put(std::move(T)));
    };
    const net::TupleMatchFn Find = [&](Tuple Tmpl, bool Take, Match &Out) {
      return Reason(Take ? Router.take(std::move(Tmpl), Out)
                         : Router.read(std::move(Tmpl), Out));
    };
    std::vector<std::uint8_t> Frame;
    while (C.readFrame(Frame)) {
      wire::Reader R(Frame.data(), Frame.size());
      if (!R.ok()) {
        if (!sendError(C, "malformed frame"))
          return;
        continue;
      }
      adoptFlow(R.takeFlow());
      switch (R.op()) {
      case wire::Op::TsOut:
      case wire::Op::TsRd:
      case wire::Op::TsIn:
        if (!net::serveTupleOp(C, R, Put, Find))
          return;
        break;
      case wire::Op::RouterStats: {
        RouterStatsSnapshot S = Router.statsSnapshot();
        wire::Writer W(wire::Op::StatsReply);
        stampReplyFlow(W);
        auto Row = [&W](const char *Name, std::uint64_t V) {
          W.text(Name);
          W.fixnum(static_cast<std::int64_t>(V));
        };
        Row("sting_router_routes_total", S.Routes);
        Row("sting_router_fanouts_total", S.Fanouts);
        Row("sting_router_retracts_total", S.Retracts);
        Row("sting_router_failovers_total", S.Failovers);
        Row("sting_router_deliveries_total", S.Deliveries);
        Row("sting_router_redeposits_total", S.Redeposits);
        Row("sting_router_orphans_total", S.Orphans);
        Row("sting_router_promotions_total", S.Promotions);
        Row("sting_router_unreplicated_total", S.Unreplicated);
        if (!sendPayload(C, W))
          return;
        break;
      }
      default:
        if (!sendError(C, "unknown op"))
          return;
        break;
      }
    }
  };
}

} // namespace sting::dist
