//===- perfbench/src/ShardDirect.cpp - shard_direct workload -------------===//
//
// One shard server (dist::shardHandler over one TupleSpace), closed loop,
// 4 callers each with a net::Client of its own. Each round is a TsOut of
// the caller's own key then a TsIn of it: one request and one reply per
// op on a private connection. Stresses net (Client, BufferedConn, Wire,
// Server), io and the shard's tuple service; bypasses SpaceRouter, its
// registration channels and Replica.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

namespace perfbench {
namespace {

constexpr int Callers = 4;

struct Caller {
  std::int64_t Key = 0;
  SplitMix64 Rng{0};
  long long PutSum = 0, TakeSum = 0;
  std::uint64_t Mismatches = 0;
  bool Stopped = false; ///< a request failed; the lane stops
};

/// Sends \p T as an \p Op request (flow first when traced) and checks
/// the reply's op. \returns the reply's last Fixnum field through \p Out.
bool call(net::Client &C, net::wire::Op Op, const Tuple &T,
          std::uint64_t Flow, net::wire::Op Want, std::int64_t &Out) {
  net::wire::Writer W(Op);
  if (Flow)
    W.flow(Flow);
  std::vector<std::uint8_t> Reply;
  if (!dist::writeTupleFields(W, T) ||
      C.request(W, Reply) != net::RequestStatus::Ok)
    return false;
  net::wire::Reader Rd(Reply.data(), Reply.size());
  if (!Rd.ok() || Rd.op() != Want)
    return false;
  net::wire::ReadField F;
  while (Rd.next(F))
    if (F.T == net::wire::Tag::Fixnum)
      Out = F.Num;
  return Rd.ok();
}

} // namespace

Result runShardDirect(const Options &O) {
  Result R;
  SplitMix64 Seeder(O.Seed);
  std::vector<std::int64_t> Keys;
  for (int C = 0; C != Callers; ++C)
    Keys.push_back(Seeder.value() * Callers + C); // distinct by residue

  forEachMachine(O, [&](VirtualMachine &Vm, IoService &Io, bool Measured,
                        std::uint64_t T0) {
    TupleSpaceRef Space = TupleSpace::create();
    auto Server = net::Server::start(Vm, Io, dist::shardHandler(Space, {}));
    if (!Server) {
      R.gate("shard server started", false);
      return;
    }
    std::vector<std::unique_ptr<net::Client>> Clients;
    for (int C = 0; C != Callers; ++C) {
      net::ClientConfig CC;
      CC.Port = Server->port();
      Clients.push_back(std::make_unique<net::Client>(Io, CC));
    }
    // Set-up ends here, before the first op. One untimed round trip then
    // checks the server end to end.
    R.SetupSecs.push_back(secondsSince(T0));
    std::int64_t Echoed = -1;
    const bool WarmOk =
        call(*Clients[0], net::wire::Op::TsOut, makeTuple(Keys[0], "tok", 0),
             0, net::wire::Op::TsAck, Echoed) &&
        call(*Clients[0], net::wire::Op::TsIn,
             makeTuple(Keys[0], "tok", formal(0)), 0, net::wire::Op::TsMatch,
             Echoed) &&
        Echoed == 0;
    if (!WarmOk)
      R.gate("warm-up round trip", false);

    if (Measured && WarmOk) {
      std::vector<Caller> Cs(Callers);
      for (int C = 0; C != Callers; ++C) {
        Cs[C].Key = Keys[C];
        Cs[C].Rng = SplitMix64(Seeder.next());
      }
      SpanLog Spans(100'000);
      Probe P{&Vm, &Io, nullptr, nullptr, {Space}};
      measurePhases(O, R, P, Callers, Spans,
                    [&](int L, std::uint64_t, std::uint64_t Stop,
                        LaneLog &Log) {
        Caller &C = Cs[L];
        net::Client &Cl = *Clients[L];
        while (!C.Stopped && nowNanos() < Stop) {
          const std::int64_t V = C.Rng.value();
          const std::uint64_t Begin = nowNanos();
          Request Req(Log, "round", Begin);
          std::int64_t Ack = 0;
          const bool PutOk =
              call(Cl, net::wire::Op::TsOut, makeTuple(C.Key, "tok", V),
                   Req.flow(), net::wire::Op::TsAck, Ack);
          const std::uint64_t T1 = nowNanos();
          Log.op(OpPut, Begin, T1, PutOk);
          Req.child("net.Client.request(TsOut)", Begin, T1);
          if (!PutOk) {
            C.Stopped = true; // whether it was deposited is unknown
            break;
          }
          C.PutSum += V;
          std::int64_t Got = -1;
          const bool TakeOk = call(Cl, net::wire::Op::TsIn,
                                   makeTuple(C.Key, "tok", formal(0)),
                                   Req.flow(), net::wire::Op::TsMatch, Got);
          const std::uint64_t T2 = nowNanos();
          Log.op(OpTake, T1, T2, TakeOk);
          Req.child("net.Client.request(TsIn)", T1, T2);
          if (!TakeOk) {
            C.Stopped = true;
            break;
          }
          C.TakeSum += Got;
          if (Got != V)
            ++C.Mismatches;
        }
      });

      // A stopped lane may leave its token behind; take it back locally.
      for (Caller &C : Cs)
        while (auto M = Space->tryTake(makeTuple(C.Key, "tok", formal(0))))
          C.TakeSum += M->binding(0).asFixnum();
      long long PutSum = 0, TakeSum = 0;
      std::uint64_t Mismatches = 0;
      for (const Caller &C : Cs) {
        PutSum += C.PutSum;
        TakeSum += C.TakeSum;
        Mismatches += C.Mismatches;
      }
      R.gate("every TsIn returns the value its round put", Mismatches == 0);
      R.gate("sum of taken values equals sum of put values",
             PutSum == TakeSum);
      R.gate("the shard space drains to size() == 0", Space->size() == 0);
      if (O.Trace)
        writeTraces(O, Spans, Vm);
    }
    Clients.clear();
    Server->shutdown();
  });
  return R;
}

} // namespace perfbench
