//===- net/Services.cpp - Wire-protocol services ------------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "net/Services.h"

#include "core/Current.h"
#include "net/Wire.h"
#include "obs/Exposition.h"
#include "obs/Flow.h"
#include "obs/SchedStats.h"

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

namespace sting::net {

bool sendPayload(BufferedConn &C, const wire::Writer &W) {
  return C.writeFrame(W.payload().data(), W.payload().size()) && C.flush();
}

bool sendError(BufferedConn &C, const char *Reason) {
  wire::Writer W(wire::Op::Err);
  W.text(Reason);
  return sendPayload(C, W);
}

void adoptFlow(std::uint64_t F) {
  if (!F)
    return;
  obs::setCurrentFlowId(F);
  // Thread::flowId as well as the TLS keeps the adoption across
  // re-dispatches (yield, park/unpark).
  if (Thread *T = currentThread())
    T->setFlowId(F);
}

void stampReplyFlow(wire::Writer &W) {
  // For matched reads the current flow is the *depositor's* (the facade
  // adopts it on take/read) — the reply then carries the causal history
  // of the data, which is the edge the flow arrows want.
  if (obs::FlowId F = obs::currentFlowId())
    W.flow(F);
}

bool serveTupleOp(BufferedConn &C, wire::Reader &R, const TuplePutFn &Put,
                  const TupleMatchFn &Find) {
  bool IsPut = R.op() == wire::Op::TsOut;
  Tuple T;
  if (!wire::readTuple(R, T))
    return sendError(C, IsPut ? "malformed tuple" : "malformed template");
  Match M;
  const char *Reason = IsPut
                           ? Put(std::move(T))
                           : Find(std::move(T), R.op() == wire::Op::TsIn, M);
  if (Reason)
    return sendError(C, Reason);
  wire::Writer W(IsPut ? wire::Op::TsAck : wire::Op::TsMatch);
  stampReplyFlow(W);
  if (!IsPut)
    wire::writeMatch(W, M);
  return sendPayload(C, W);
}

Server::Handler echoHandler() {
  return [](BufferedConn &C) {
    std::vector<std::uint8_t> Frame;
    while (C.readFrame(Frame)) {
      wire::Reader R(Frame.data(), Frame.size());
      if (!R.ok() || R.op() != wire::Op::Echo) {
        if (!sendError(C, "expected Echo"))
          return;
        continue;
      }
      // Adopt the request flow (the raw echo below returns the Flow field
      // to the client automatically).
      adoptFlow(R.takeFlow());
      // Echo the raw field bytes back under the reply opcode; no decode
      // round-trip needed.
      std::vector<std::uint8_t> Reply;
      Reply.push_back(static_cast<std::uint8_t>(wire::Op::EchoReply));
      Reply.insert(Reply.end(), Frame.begin() + 1, Frame.end());
      if (!C.writeFrame(Reply.data(), Reply.size()) || !C.flush())
        return;
    }
  };
}

namespace {

/// Serves one plain-HTTP scrape for curl/Prometheus after the "GET " sniff
/// matched. Drains the request head (bounded), then writes a complete
/// HTTP/1.0 response and closes.
void serveHttpScrape(VirtualMachine &Vm, BufferedConn &C) {
  // Consume the request line and headers up to the blank line. Bounded in
  // both bytes and time so a stalled client cannot pin the thread.
  Deadline D = Deadline::in(2'000'000'000); // 2 s
  unsigned Seen = 0;
  for (std::size_t N = 0; Seen != 4 && N < 8192; ++N) {
    char B = 0;
    if (!C.readExact(&B, 1, D))
      break; // EOF/timeout: answer anyway, the GET line already arrived
    if (B == (Seen % 2 == 0 ? '\r' : '\n'))
      ++Seen;
    else
      Seen = B == '\r' ? 1 : 0;
  }
  std::string Body = Vm.metricsText();
  std::string Head = "HTTP/1.0 200 OK\r\n"
                     "Content-Type: text/plain; version=0.0.4\r\n"
                     "Content-Length: " +
                     std::to_string(Body.size()) +
                     "\r\n"
                     "Connection: close\r\n\r\n";
  if (C.write(Head.data(), Head.size()) && C.write(Body.data(), Body.size()))
    C.flush();
}

} // namespace

Server::Handler metricsHandler(VirtualMachine &Vm) {
  return [&Vm](BufferedConn &C) {
    std::vector<std::uint8_t> Frame;
    for (;;) {
      if (!C.readFrame(Frame)) {
        if (errno != EMSGSIZE)
          return;
        // The length prefix was implausibly large — likely ASCII, and
        // readFrame consumed nothing. Sniff for an HTTP GET ("GET " reads
        // as length 0x20544547, far above MaxFrame) and serve a one-shot
        // plain-text scrape so `curl http://host:port/metrics` works.
        char Head[4] = {};
        if (!C.readExact(Head, sizeof(Head)) ||
            std::memcmp(Head, "GET ", 4) != 0)
          return;
        serveHttpScrape(Vm, C);
        return;
      }
      wire::Reader R(Frame.data(), Frame.size());
      if (!R.ok()) {
        if (!sendError(C, "malformed frame"))
          return;
        continue;
      }
      adoptFlow(R.takeFlow());
      switch (R.op()) {
      case wire::Op::Metrics: {
        wire::Writer W(wire::Op::MetricsText);
        stampReplyFlow(W);
        W.blob(Vm.metricsText());
        if (!sendPayload(C, W))
          return;
        break;
      }
      case wire::Op::StatsSnap: {
        obs::SchedStatsSnapshot S = Vm.aggregateStats();
        wire::Writer W(wire::Op::StatsReply);
        stampReplyFlow(W);
        std::size_t NumRows = 0;
        const obs::CounterRow *Rows = obs::counterRows(NumRows);
        for (std::size_t I = 0; I != NumRows; ++I) {
          W.text(Rows[I].MetricName);
          W.fixnum(static_cast<std::int64_t>(S.*(Rows[I].Field)));
        }
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

Server::Handler tupleSpaceHandler(TupleSpaceRef Space) {
  return [Space](BufferedConn &C) {
    const TuplePutFn Put = [&Space](Tuple T) -> const char * {
      Space->put(std::move(T));
      return nullptr;
    };
    // Blocks the *connection thread* in the space — it parks in the
    // blocked-reader table like any local reader while the VP keeps
    // serving other connections; kill-group cancellation unwinds it out
    // of the park.
    const TupleMatchFn Find = [&Space](Tuple Tmpl, bool Take,
                                       Match &Out) -> const char * {
      Out = Take ? Space->take(std::move(Tmpl)) : Space->read(std::move(Tmpl));
      return nullptr;
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
        if (!serveTupleOp(C, R, Put, Find))
          return;
        break;
      default:
        if (!sendError(C, "unknown op"))
          return;
        break;
      }
    }
  };
}

} // namespace sting::net
