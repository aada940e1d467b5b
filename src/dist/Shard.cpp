//===- dist/Shard.cpp - Shard-side tuple-space service ------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "dist/Shard.h"

#include "core/Gc.h"
#include "core/ThreadController.h"
#include "dist/Replica.h"
#include "dist/Route.h"
#include "gc/GlobalHeap.h"
#include "net/Wire.h"
#include "obs/Flow.h"
#include "support/SpinLock.h"

#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sting::dist {

namespace {

using net::BufferedConn;
namespace wire = net::wire;

using net::adoptFlow;
using net::sendError;
using net::sendPayload;
using net::stampReplyFlow;

/// Marshals a replication outcome: RepAck on success, Err(reason, epoch)
/// on a fenced/refused op — the clean-refusal discipline Hello set the
/// tone for, so a stale primary gets told, never hung up on. The trailing
/// epoch lets a peer arbitrarily far behind (a fresh router against a
/// cluster with failover history) adopt the receiver's view in one hop
/// instead of inching forward an epoch per retry.
bool sendRepAck(BufferedConn &C, const Replica::Ack &A) {
  if (!A.Ok) {
    wire::Writer W(wire::Op::Err);
    stampReplyFlow(W);
    W.text(A.Err ? A.Err : "replication error");
    W.fixnum(static_cast<std::int64_t>(A.Epoch));
    return sendPayload(C, W);
  }
  wire::Writer W(wire::Op::RepAck);
  stampReplyFlow(W);
  W.fixnum(static_cast<std::int64_t>(A.Epoch));
  W.fixnum(A.Info);
  return sendPayload(C, W);
}

/// One queued push frame (Deliver or Retracted). For a *take* delivery the
/// consumed tuple's values ride along, GC-rooted, so a frame the
/// connection dies before flushing can re-deposit its tuple — the
/// exactly-once half the shard owes (the router owes the other half for
/// frames that *were* flushed).
struct OutFrame {
  std::vector<std::uint8_t> Payload;
  std::uint64_t Id = 0;             ///< owning registration; 0 = none
  std::vector<gc::Value> Redeposit; ///< non-empty only for take deliveries
  bool Taken = false; ///< noteTaken ran (drainOut popped the frame); only
                      ///< then does a dropped frame owe a noteRestored —
                      ///< teardown-dropped frames never told the backup
                      ///< and must just re-deposit locally.
};

/// Per-connection registration state. The reader thread owns the
/// BufferedConn; depositor threads only touch the lock-guarded queue via
/// the proxy delivery callback.
class ShardConn {
public:
  ShardConn(TupleSpaceRef Space, BufferedConn &C, const ShardConfig &Cfg)
      : Space(std::move(Space)), C(C), Cfg(Cfg) {}

  ~ShardConn() { teardown(); }

  TupleSpaceRef Space;
  BufferedConn &C;
  ShardConfig Cfg;

  enum class RegState : std::uint8_t {
    Armed,    ///< registered in the space, no delivery yet
    Enqueued, ///< delivery callback ran; its frame is in (or past) Out
  };

  SpinLock Lock;
  std::unordered_map<std::uint64_t, RegState> Regs;
  std::deque<std::unique_ptr<OutFrame>> Out;
  bool ConnDead = false; ///< write side failed; stop queuing sends

  bool hasWork() {
    std::lock_guard<SpinLock> G(Lock);
    return !Regs.empty() || !Out.empty();
  }

  /// The proxy delivery callback (depositor thread, outside all space
  /// locks): serialize the match now — values may be unreachable from the
  /// space once consumed — and queue the frame for the reader thread.
  void onDeliver(std::uint64_t Id, Match M, bool Remove) {
    wire::Writer W(wire::Op::Deliver);
    if (std::uint64_t F = M.Flow ? M.Flow : obs::currentFlowId())
      W.flow(F);
    W.fixnum(static_cast<std::int64_t>(Id));
    for (gc::Value V : M.Fields)
      W.value(V);
    auto Fr = std::make_unique<OutFrame>();
    Fr->Payload = W.payload();
    Fr->Id = Id;
    if (Remove) {
      Fr->Redeposit.assign(M.Fields.begin(), M.Fields.end());
      for (gc::Value &Slot : Fr->Redeposit)
        Space->heap().addRoot(&Slot);
    }
    std::lock_guard<SpinLock> G(Lock);
    auto It = Regs.find(Id);
    if (It != Regs.end())
      It->second = RegState::Enqueued;
    Out.push_back(std::move(Fr));
  }

  /// Releases \p Fr. \p Sent distinguishes a flushed frame (roots only)
  /// from a dropped one (re-deposit a consumed tuple first). Under
  /// replication a dropped frame whose noteTaken ran (Fr->Taken) restores
  /// the backup copy — or re-routes the tuple to the slot's current
  /// primary — before (or instead of) the local put. A frame dropped
  /// before drainOut ever popped it never decremented the ledger or told
  /// the backup anything, so it only re-deposits locally: an unpaired
  /// noteRestored would over-count the resident and forward a second
  /// backup copy, materializing a duplicate at the next promotion.
  void dispose(std::unique_ptr<OutFrame> Fr, bool Sent) {
    if (!Fr->Redeposit.empty()) {
      bool Local = true;
      if (!Sent && Fr->Taken && Cfg.Rep)
        Local = Cfg.Rep->noteRestored(Fr->Redeposit);
      for (gc::Value &Slot : Fr->Redeposit)
        Space->heap().removeRoot(&Slot);
      if (!Sent && Local) {
        Tuple T;
        T.reserve(Fr->Redeposit.size());
        for (gc::Value V : Fr->Redeposit)
          T.emplace_back(V);
        Space->put(std::move(T));
      }
    }
  }

  /// Sends every queued push frame. \returns false once the write side
  /// fails; queued and future frames then drain through teardown.
  bool drainOut() {
    for (;;) {
      std::unique_ptr<OutFrame> Fr;
      {
        std::lock_guard<SpinLock> G(Lock);
        if (ConnDead || Out.empty())
          return !ConnDead;
        Fr = std::move(Out.front());
        Out.pop_front();
      }
      // Replication's delivered⇒tombstoned invariant: the backup learns
      // the take *before* the Deliver frame can be observed, so a
      // promotion never resurrects a tuple someone already received. If
      // the write below fails, dispose() restores the copy — Taken marks
      // that there is a tombstone to undo.
      if (!Fr->Redeposit.empty() && Cfg.Rep) {
        Cfg.Rep->noteTaken(Fr->Redeposit);
        Fr->Taken = true;
      }
      bool Sent = C.writeFrame(Fr->Payload.data(), Fr->Payload.size(),
                               Deadline::in(Cfg.PollNanos * 1000)) &&
                  C.flush(Deadline::in(Cfg.PollNanos * 1000));
      std::uint64_t Id = Fr->Id;
      dispose(std::move(Fr), Sent);
      if (!Sent) {
        std::lock_guard<SpinLock> G(Lock);
        ConnDead = true;
        return false;
      }
      if (Id) {
        // The registration completed observably; forget it. (A later
        // Retract for it answers wasArmed=false via the unknown-id path.)
        std::lock_guard<SpinLock> G(Lock);
        auto It = Regs.find(Id);
        if (It != Regs.end() && It->second == RegState::Enqueued)
          Regs.erase(It);
      }
    }
  }

  /// Connection exit: every registration resolves exactly once. Armed ones
  /// retract (their tuples never left the space); delivered ones either
  /// flushed their frame (the router owns the tuple) or re-deposit it.
  void teardown() {
    for (;;) {
      std::uint64_t Id = 0;
      {
        std::lock_guard<SpinLock> G(Lock);
        if (Regs.empty())
          break;
        Id = Regs.begin()->first;
      }
      if (Space->retractProxy(Id)) {
        std::lock_guard<SpinLock> G(Lock);
        Regs.erase(Id);
        continue;
      }
      // A delivery owns the registration. Its callback may still be
      // running on the depositor thread; wait for the frame to reach the
      // queue (it always does — the callback fires exactly once and
      // cannot block on the space).
      for (;;) {
        {
          std::lock_guard<SpinLock> G(Lock);
          auto It = Regs.find(Id);
          if (It == Regs.end() || It->second == RegState::Enqueued) {
            Regs.erase(Id);
            break;
          }
        }
        ThreadController::yieldProcessor();
      }
    }
    // No registration remains, so no further callback can enqueue: the
    // queue is final. Drop every unsent frame, re-depositing consumed
    // tuples.
    std::deque<std::unique_ptr<OutFrame>> Dropped;
    {
      std::lock_guard<SpinLock> G(Lock);
      Dropped.swap(Out);
      ConnDead = true;
    }
    for (auto &Fr : Dropped)
      dispose(std::move(Fr), /*Sent=*/false);
  }
};

void serveShardConn(ShardConn &S) {
  BufferedConn &C = S.C;
  const net::TuplePutFn Put = [&S](Tuple T) -> const char * {
    S.Space->put(std::move(T));
    return nullptr;
  };
  // Parks the connection thread like net::tupleSpaceHandler — the unary
  // path for pool connections. Registration connections never send these.
  const net::TupleMatchFn Find = [&S](Tuple Tmpl, bool Take,
                                      Match &Out) -> const char * {
    Out = Take ? S.Space->take(std::move(Tmpl)) : S.Space->read(std::move(Tmpl));
    // Delivered⇒tombstoned: the backup hears about the take before the
    // caller can observe the TsMatch.
    if (Take && S.Cfg.Rep)
      S.Cfg.Rep->noteTaken(Out.Fields);
    return nullptr;
  };
  std::vector<std::uint8_t> Frame;
  for (;;) {
    if (!S.drainOut())
      return;
    // With registrations or queued pushes pending, poll so depositor
    // deliveries drain promptly; otherwise block until the client speaks.
    Deadline Poll =
        S.hasWork() ? Deadline::in(S.Cfg.PollNanos) : Deadline::never();
    if (!C.readFrame(Frame, Poll)) {
      if (errno == ETIMEDOUT)
        continue; // poll lap: drain pushes, try again
      return;     // EOF or connection error
    }
    wire::Reader R(Frame.data(), Frame.size());
    if (!R.ok()) {
      if (!sendError(C, "malformed frame"))
        return;
      continue;
    }
    adoptFlow(R.takeFlow());
    switch (R.op()) {
    case wire::Op::Hello: {
      wire::ReadField F;
      if (!R.next(F) || F.T != wire::Tag::Fixnum) {
        if (!sendError(C, "malformed hello"))
          return;
        break;
      }
      if (F.Num != WireVersion) {
        // Clean refusal, then close: the router surfaces this as a leg
        // failure instead of hanging on a silent peer.
        sendError(C, "version mismatch");
        return;
      }
      // Optional (slot, epoch) pairs: the router's promotion view. A
      // reconnecting stale primary learns its fencing here, before any
      // registration can arm against resurrected state.
      if (S.Cfg.Rep) {
        wire::ReadField SlotF, EpochF;
        while (R.next(SlotF) && SlotF.T == wire::Tag::Fixnum &&
               R.next(EpochF) && EpochF.T == wire::Tag::Fixnum)
          S.Cfg.Rep->observeEpoch(static_cast<std::uint64_t>(SlotF.Num),
                                  static_cast<std::uint64_t>(EpochF.Num));
      }
      wire::Writer W(wire::Op::HelloOk);
      stampReplyFlow(W);
      W.fixnum(WireVersion);
      if (!sendPayload(C, W))
        return;
      break;
    }
    case wire::Op::Register: {
      wire::ReadField IdF, FlagsF;
      Tuple Template;
      if (!R.next(IdF) || IdF.T != wire::Tag::Fixnum || !R.next(FlagsF) ||
          FlagsF.T != wire::Tag::Fixnum ||
          !wire::readTuple(R, Template)) {
        if (!sendError(C, "malformed register"))
          return;
        break;
      }
      std::uint64_t Id = static_cast<std::uint64_t>(IdF.Num);
      bool Remove = (FlagsF.Num & 1) != 0;
      bool Duplicate;
      {
        std::lock_guard<SpinLock> G(S.Lock);
        Duplicate = S.Regs.count(Id) != 0;
        // Insert before arming so the callback (which can fire inside
        // registerProxy on an immediate match) finds the entry.
        if (!Duplicate)
          S.Regs.emplace(Id, ShardConn::RegState::Armed);
      }
      if (Duplicate) {
        // Reply outside the lock: a socket write can park, and SpinLock
        // holders must never park.
        if (!sendError(C, "duplicate registration id"))
          return;
        break;
      }
      bool Ok = S.Space->registerProxy(
          Id, std::move(Template), Remove,
          [&S, Remove](std::uint64_t RegId, Match M) {
            S.onDeliver(RegId, std::move(M), Remove);
          });
      if (!Ok) {
        {
          std::lock_guard<SpinLock> G(S.Lock);
          S.Regs.erase(Id);
        }
        // "Dead on arrival": never armed, no delivery will ever fire —
        // the same promise a successful while-armed retract makes.
        wire::Writer W(wire::Op::Retracted);
        stampReplyFlow(W);
        W.fixnum(static_cast<std::int64_t>(Id));
        W.boolean(true);
        if (!sendPayload(C, W))
          return;
      }
      break;
    }
    case wire::Op::Retract: {
      wire::ReadField IdF;
      if (!R.next(IdF) || IdF.T != wire::Tag::Fixnum) {
        if (!sendError(C, "malformed retract"))
          return;
        break;
      }
      std::uint64_t Id = static_cast<std::uint64_t>(IdF.Num);
      bool WasArmed = S.Space->retractProxy(Id);
      if (WasArmed) {
        std::lock_guard<SpinLock> G(S.Lock);
        S.Regs.erase(Id);
      }
      STING_TRACE_EVENT(RouterRetract, 0,
                        WasArmed ? (1u << 16) : 0u);
      wire::Writer W(wire::Op::Retracted);
      stampReplyFlow(W);
      W.fixnum(static_cast<std::int64_t>(Id));
      W.boolean(WasArmed);
      if (!sendPayload(C, W))
        return;
      break;
    }
    case wire::Op::TsOut:
    case wire::Op::TsRd:
    case wire::Op::TsIn:
      if (!net::serveTupleOp(C, R, Put, Find))
        return;
      break;
    case wire::Op::RepPut: {
      wire::ReadField SlotF, EpochF, FlagsF;
      Tuple T;
      if (!R.next(SlotF) || SlotF.T != wire::Tag::Fixnum ||
          !R.next(EpochF) || EpochF.T != wire::Tag::Fixnum ||
          !R.next(FlagsF) || FlagsF.T != wire::Tag::Fixnum ||
          !wire::readTuple(R, T)) {
        if (!sendError(C, "malformed repput"))
          return;
        break;
      }
      if (!S.Cfg.Rep) {
        if (!sendError(C, "no replica"))
          return;
        break;
      }
      Replica::Ack A = S.Cfg.Rep->onPut(
          static_cast<std::uint64_t>(SlotF.Num),
          static_cast<std::uint64_t>(EpochF.Num), (FlagsF.Num & 1) != 0,
          std::move(T));
      if (!sendRepAck(C, A))
        return;
      break;
    }
    case wire::Op::RepRetract: {
      wire::ReadField SlotF, EpochF;
      Tuple T;
      if (!R.next(SlotF) || SlotF.T != wire::Tag::Fixnum ||
          !R.next(EpochF) || EpochF.T != wire::Tag::Fixnum ||
          !wire::readTuple(R, T)) {
        if (!sendError(C, "malformed repretract"))
          return;
        break;
      }
      if (!S.Cfg.Rep) {
        if (!sendError(C, "no replica"))
          return;
        break;
      }
      Replica::Ack A =
          S.Cfg.Rep->onRetract(static_cast<std::uint64_t>(SlotF.Num),
                               static_cast<std::uint64_t>(EpochF.Num), T);
      if (!sendRepAck(C, A))
        return;
      break;
    }
    case wire::Op::RepPromote:
    case wire::Op::RepDemote: {
      bool Promote = R.op() == wire::Op::RepPromote;
      wire::ReadField SlotF, EpochF;
      if (!R.next(SlotF) || SlotF.T != wire::Tag::Fixnum ||
          !R.next(EpochF) || EpochF.T != wire::Tag::Fixnum) {
        if (!sendError(C, "malformed promote"))
          return;
        break;
      }
      if (!S.Cfg.Rep) {
        if (!sendError(C, "no replica"))
          return;
        break;
      }
      std::uint64_t Slot = static_cast<std::uint64_t>(SlotF.Num);
      std::uint64_t Epoch = static_cast<std::uint64_t>(EpochF.Num);
      Replica::Ack A = Promote ? S.Cfg.Rep->onPromote(Slot, Epoch)
                               : S.Cfg.Rep->onDemote(Slot, Epoch);
      if (!sendRepAck(C, A))
        return;
      break;
    }
    case wire::Op::RepPull: {
      wire::ReadField SlotF, EpochF, OffsetF;
      if (!R.next(SlotF) || SlotF.T != wire::Tag::Fixnum ||
          !R.next(EpochF) || EpochF.T != wire::Tag::Fixnum) {
        if (!sendError(C, "malformed pull"))
          return;
        break;
      }
      // Chunk cursor; absent means a whole-snapshot request from the top.
      std::uint64_t Offset = 0;
      if (R.next(OffsetF) && OffsetF.T == wire::Tag::Fixnum)
        Offset = static_cast<std::uint64_t>(OffsetF.Num);
      if (!S.Cfg.Rep) {
        if (!sendError(C, "no replica"))
          return;
        break;
      }
      Replica::PullReply P =
          S.Cfg.Rep->onPull(static_cast<std::uint64_t>(SlotF.Num),
                            static_cast<std::uint64_t>(EpochF.Num), Offset);
      if (!P.Ok) {
        if (!sendError(C, P.Err ? P.Err : "pull refused"))
          return;
        break;
      }
      wire::Writer W(wire::Op::RepState);
      stampReplyFlow(W);
      W.fixnum(SlotF.Num);
      W.fixnum(static_cast<std::int64_t>(P.Epoch));
      W.fixnum(P.Complete ? 1 : 0);
      W.fixnum(static_cast<std::int64_t>(P.Version));
      for (const std::string &B : P.Tuples)
        W.blob(B);
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
}

} // namespace

net::Server::Handler shardHandler(TupleSpaceRef Space, ShardConfig Config) {
  return [Space, Config](BufferedConn &C) {
    ShardConn S(Space, C, Config);
    serveShardConn(S);
    // ~ShardConn retracts/re-deposits; it must run before the server
    // closes the socket, which the handler-returns-then-close order
    // guarantees.
  };
}

} // namespace sting::dist
