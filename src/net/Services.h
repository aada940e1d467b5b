//===- net/Services.h - Wire-protocol services ------------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Connection handlers speaking the net::wire protocol. Two services:
///
///  - echoHandler: EchoReply's each Echo frame's fields back verbatim —
///    the protocol smoke test and throughput baseline.
///
///  - tupleSpaceHandler: exposes a first-class tuple space over the wire.
///    TsOut deposits; TsRd/TsIn match templates (Formal fields allowed)
///    and *block the connection thread in the space* exactly like a local
///    reader — the thread parks in the space's blocked-reader table while
///    the VP serves other connections, and a matching deposit (from any
///    client or local thread) wakes it. Blob fields arrive as young
///    strings on the connection thread's heap and ride
///    LocalHeap::escape() into the shared old generation on deposit.
///
///  - metricsHandler: live introspection of a running machine. Speaks the
///    wire protocol (Metrics -> MetricsText with the Prometheus scrape as
///    one Blob; StatsSnap -> StatsReply with (name, value) pairs) and also
///    sniffs plain HTTP GETs so `curl http://host:port/metrics` works
///    against the same port.
///
/// Every handler peels an optional leading Flow field (net/Wire.h) and
/// adopts it into the connection thread, so one client request's
/// cross-thread journey through the server shares a single causal flow id
/// in exported traces.
///
/// serveTupleOp is the one TsOut/TsRd/TsIn service: tupleSpaceHandler,
/// the shard handler and the router handler (src/dist) differ only in the
/// put/match backend they hand it. The reply helpers it uses are exported
/// beside it for the handlers' other ops.
///
//===----------------------------------------------------------------------===//

#ifndef STING_NET_SERVICES_H
#define STING_NET_SERVICES_H

#include "net/Server.h"
#include "net/Wire.h"
#include "tuple/TupleSpace.h"

#include <functional>

namespace sting::net {

/// Writes \p W as one frame and flushes it. \returns false once the
/// connection has failed.
bool sendPayload(BufferedConn &C, const wire::Writer &W);

/// Replies Err(\p Reason).
bool sendError(BufferedConn &C, const char *Reason);

/// Adopts a client-supplied flow id (0 = none) into the connection thread,
/// so this request's server-side work — trace events, forks, tuple
/// deposits — joins the client's causal flow.
void adoptFlow(std::uint64_t F);

/// Prefixes \p W with the connection's current flow so the client can
/// stitch the reply into its trace.
void stampReplyFlow(wire::Writer &W);

/// A tuple-op backend. Each call returns null on success, or the reason
/// text the Err reply carries. TupleMatchFn takes when \p Take is set and
/// reads otherwise, filling \p Out; it may park the connection thread.
using TuplePutFn = std::function<const char *(Tuple T)>;
using TupleMatchFn =
    std::function<const char *(Tuple Template, bool Take, Match &Out)>;

/// Serves the TsOut, TsRd or TsIn request \p R (its op must be one of
/// the three, its flow already adopted): decodes the tuple or template,
/// calls the backend and replies TsAck, TsMatch, or Err with the backend's
/// reason or "malformed tuple"/"malformed template". \returns false once
/// the reply cannot be written.
bool serveTupleOp(BufferedConn &C, wire::Reader &R, const TuplePutFn &Put,
                  const TupleMatchFn &Find);

/// \returns a handler that echoes every Echo frame's fields back.
Server::Handler echoHandler();

/// \returns a handler serving out/rd/in on \p Space. The reference keeps
/// the space alive for the server's lifetime.
Server::Handler tupleSpaceHandler(TupleSpaceRef Space);

/// \returns a handler serving live metrics for \p Vm (which must outlive
/// the server): Metrics/StatsSnap wire requests plus plain-HTTP GET
/// scrapes on the same port.
Server::Handler metricsHandler(VirtualMachine &Vm);

} // namespace sting::net

#endif // STING_NET_SERVICES_H
