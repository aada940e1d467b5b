//===- perfbench/src/Ladder.cpp - Per-layer latency ladder ---------------===//
//
// Times the same tuple op at each layer boundary, one caller, through
// public calls only:
//
//   tuple_put_take  TupleSpace put + take, in process
//   echo            net::Client Echo round trip (transport, no service)
//   shard_put/take  TsOut / TsIn straight to one shard server's port
//   router_*_f1     SpaceRouter put / takeUntil, single copy
//   router_*_f2     SpaceRouter put / takeUntil, replication factor 2
//
// The medians of adjacent rungs give each layer's share of a router op.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

namespace perfbench {
namespace {

constexpr int InProcessReps = 2000;
constexpr int WireReps = 400;
constexpr int RouterReps = 300;

/// Times \p Reps calls of \p Step (which returns false on a wrong or
/// failed op) and records the median as ladder.<Name>.
template <typename Fn>
double rung(Result &R, const char *Name, int Reps, Fn Step) {
  Samples S;
  bool Ok = true;
  for (int I = 0; I != Reps && Ok; ++I) {
    const std::uint64_t T0 = nowNanos();
    Ok = Step(I);
    S.add(static_cast<double>(nowNanos() - T0) / 1e3);
  }
  R.gate(std::string("ladder step ") + Name + " returns what was put", Ok);
  const double P50 = S.percentile(50);
  R.metric(std::string("ladder.") + Name + "_us", P50, "us", S.count());
  return P50;
}

bool replyIs(const std::vector<std::uint8_t> &Reply, net::wire::Op Want) {
  net::wire::Reader Rd(Reply.data(), Reply.size());
  return Rd.ok() && Rd.op() == Want;
}

/// Put then take of one concrete key through \p Router, as two rungs.
void routerRungs(Result &R, dist::SpaceRouter &Router, const char *PutName,
                 const char *TakeName, double &Put, double &Take) {
  auto Key = [](int I) { return static_cast<std::int64_t>(1'000'000 + I); };
  Put = rung(R, PutName, RouterReps, [&](int I) {
    return Router.put(makeTuple(Key(I), "tok", I)) == dist::Status::Ok;
  });
  Take = rung(R, TakeName, RouterReps, [&](int I) {
    Match M;
    return Router.takeUntil(makeTuple(Key(I), "tok", formal(0)),
                            Deadline::in(5'000'000'000),
                            M) == dist::Status::Ok &&
           M.binding(0).asFixnum() == I;
  });
}

} // namespace

void runLadder(const Options &O, Result &R) {
  Options LadderOpts = O;
  LadderOpts.Trace = false;
  VirtualMachine Vm(machineConfig(LadderOpts));
  IoService Io;
  Vm.run([&]() -> AnyValue {
    TupleSpaceRef Local = TupleSpace::create();
    const double Tuple = rung(R, "tuple_put_take", InProcessReps, [&](int I) {
      Local->put(makeTuple(7, "tok", I));
      return Local->take(makeTuple(7, "tok", formal(0)))
                 .binding(0)
                 .asFixnum() == I;
    });

    auto Echo = net::Server::start(Vm, Io, net::echoHandler());
    TupleSpaceRef ShardSpace = TupleSpace::create();
    auto Shard =
        net::Server::start(Vm, Io, dist::shardHandler(ShardSpace, {}));
    ShardRing Ring1, Ring2;
    const bool Up = Echo && Shard && Ring1.build(Vm, Io, 3, 1) &&
                    Ring2.build(Vm, Io, 3, 2);
    R.gate("ladder servers started", Up);
    if (Up) {
      net::ClientConfig EC, SC;
      EC.Port = Echo->port();
      SC.Port = Shard->port();
      net::Client EchoClient(Io, EC), ShardClient(Io, SC);
      std::vector<std::uint8_t> Reply;
      auto send = [&](net::Client &C, const net::wire::Writer &W,
                      net::wire::Op Want) {
        return C.request(W, Reply) == net::RequestStatus::Ok &&
               replyIs(Reply, Want);
      };
      // One unmeasured request each opens the connections.
      net::wire::Writer Hi(net::wire::Op::Echo);
      Hi.fixnum(0);
      (void)send(EchoClient, Hi, net::wire::Op::EchoReply);

      const double EchoUs = rung(R, "echo", WireReps, [&](int I) {
        net::wire::Writer W(net::wire::Op::Echo);
        W.fixnum(I);
        return send(EchoClient, W, net::wire::Op::EchoReply);
      });
      const double ShardPut = rung(R, "shard_put", WireReps, [&](int I) {
        net::wire::Writer W(net::wire::Op::TsOut);
        return dist::writeTupleFields(W, makeTuple(7, "tok", I)) &&
               send(ShardClient, W, net::wire::Op::TsAck);
      });
      const double ShardTake = rung(R, "shard_take", WireReps, [&](int) {
        net::wire::Writer W(net::wire::Op::TsIn);
        return dist::writeTupleFields(W, makeTuple(7, "tok", formal(0))) &&
               send(ShardClient, W, net::wire::Op::TsMatch);
      });

      double Put1 = 0, Take1 = 0, Put2 = 0, Take2 = 0;
      routerRungs(R, *Ring1.Router, "router_put_f1", "router_take_f1", Put1,
                  Take1);
      routerRungs(R, *Ring2.Router, "router_put_f2", "router_take_f2", Put2,
                  Take2);

      R.metric("net.transport_us", EchoUs, "us", WireReps);
      R.metric("dist.put_self_us", Put1 - ShardPut, "us", RouterReps);
      R.metric("dist.take_self_us", Take1 - ShardTake, "us", RouterReps);
      R.metric("repl.put_overhead_us", Put2 - Put1, "us", RouterReps);
      R.metric("repl.take_overhead_us", Take2 - Take1, "us", RouterReps);
      R.metric("tuple.service_us", Tuple, "us", InProcessReps);
      R.gate("ladder shard spaces drain to size() == 0",
             ShardSpace->size() == 0 && Ring1.residentTuples() == 0 &&
                 Ring2.residentTuples() == 0);
    }
    Ring1.teardown();
    Ring2.teardown();
    if (Shard)
      Shard->shutdown();
    if (Echo)
      Echo->shutdown();
    return AnyValue(true);
  });
}

} // namespace perfbench
