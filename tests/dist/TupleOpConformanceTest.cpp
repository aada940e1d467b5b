//===- tests/dist/TupleOpConformanceTest.cpp - One tuple-op service -------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// TsOut/TsRd/TsIn are served by one routine (net::serveTupleOp) behind
// three handlers: the plain tuple service, a shard, and a router over one
// shard. The same request frames must get the same replies from all
// three, error replies included.
//
//===----------------------------------------------------------------------===//

#include "dist/Shard.h"
#include "dist/SpaceRouter.h"

#include "core/VirtualMachine.h"
#include "net/Services.h"
#include "net/Wire.h"
#include "gtest/gtest.h"

#include <memory>
#include <string>
#include <vector>

namespace {

using namespace sting;
namespace wire = net::wire;

/// A reply reduced to what the three handlers must agree on: the op and
/// the printed fields (Err text, matched values), flow tags dropped.
std::string describe(const std::vector<std::uint8_t> &Frame) {
  wire::Reader R(Frame.data(), Frame.size());
  if (!R.ok())
    return "<bad reply>";
  R.takeFlow();
  std::string Out = std::to_string(static_cast<int>(R.op()));
  wire::ReadField F;
  while (R.next(F)) {
    switch (F.T) {
    case wire::Tag::Fixnum:
      Out += " " + std::to_string(F.Num);
      break;
    case wire::Tag::Text:
    case wire::Tag::Blob:
      Out += " '" + std::string(F.Bytes) + "'";
      break;
    case wire::Tag::Flow:
      break;
    default:
      Out += " tag" + std::to_string(static_cast<int>(F.T));
      break;
    }
  }
  return Out;
}

/// The request script, in order: every reply it draws is deterministic.
std::vector<std::vector<std::uint8_t>> requests() {
  std::vector<std::vector<std::uint8_t>> Reqs;
  wire::Writer Out(wire::Op::TsOut);
  Out.text("k");
  Out.fixnum(7);
  Reqs.push_back(Out.payload());
  wire::Writer Rd(wire::Op::TsRd); // formal: binds without consuming
  Rd.text("k");
  Rd.formal(0);
  Reqs.push_back(Rd.payload());
  wire::Writer In(wire::Op::TsIn);
  In.text("k");
  In.fixnum(7);
  Reqs.push_back(In.payload());
  // A Fixnum tag cut off after two of its eight bytes.
  std::uint8_t Cut[] = {static_cast<std::uint8_t>(wire::Tag::Fixnum), 1, 2};
  Reqs.push_back({static_cast<std::uint8_t>(wire::Op::TsOut)});
  Reqs.back().insert(Reqs.back().end(), Cut, Cut + sizeof(Cut));
  Reqs.push_back({static_cast<std::uint8_t>(wire::Op::TsIn)});
  Reqs.back().insert(Reqs.back().end(), Cut, Cut + sizeof(Cut));
  wire::Writer Echo(wire::Op::Echo); // not a tuple op on any of the three
  Echo.text("x");
  Reqs.push_back(Echo.payload());
  return Reqs;
}

std::vector<std::string> replay(IoService &Io, std::uint16_t Port) {
  std::vector<std::string> Replies;
  net::BufferedConn C(net::Socket::connectTo(Io, "127.0.0.1", Port));
  if (!C.valid())
    return Replies;
  std::vector<std::uint8_t> Frame;
  for (const auto &Req : requests()) {
    if (!C.writeFrame(Req.data(), Req.size()) || !C.flush() ||
        !C.readFrame(Frame, Deadline::in(5'000'000'000)))
      break;
    Replies.push_back(describe(Frame));
  }
  return Replies;
}

TEST(TupleOpConformanceTest, ThreeHandlersReplyAlike) {
  VirtualMachine Vm;
  IoService Io;
  std::vector<std::vector<std::string>> Seen;
  Vm.run([&]() -> AnyValue {
    TupleSpaceRef Plain = TupleSpace::create();
    TupleSpaceRef ShardSpace = TupleSpace::create();
    TupleSpaceRef RoutedSpace = TupleSpace::create();
    auto PlainServer =
        net::Server::start(Vm, Io, net::tupleSpaceHandler(Plain));
    auto ShardServer =
        net::Server::start(Vm, Io, dist::shardHandler(ShardSpace));
    auto RoutedShard =
        net::Server::start(Vm, Io, dist::shardHandler(RoutedSpace));
    if (!PlainServer || !ShardServer || !RoutedShard) {
      ADD_FAILURE() << "server start failed";
      return {};
    }
    dist::RouterConfig RC;
    net::ClientConfig CC;
    CC.Port = RoutedShard->port();
    CC.RequestTimeoutNanos = 2'000'000'000;
    RC.Shards.push_back(CC);
    dist::SpaceRouter Router(Vm, Io, std::move(RC));
    auto RouterServer =
        net::Server::start(Vm, Io, dist::routerHandler(Router));
    if (!RouterServer) {
      ADD_FAILURE() << "router server start failed";
      return {};
    }

    Seen.push_back(replay(Io, PlainServer->port()));
    Seen.push_back(replay(Io, ShardServer->port()));
    Seen.push_back(replay(Io, RouterServer->port()));

    RouterServer->shutdown();
    Router.shutdown();
    PlainServer->shutdown();
    ShardServer->shutdown();
    RoutedShard->shutdown();
    return {};
  });

  auto Op = [](wire::Op O) { return std::to_string(static_cast<int>(O)); };
  const std::vector<std::string> Want = {
      Op(wire::Op::TsAck),
      Op(wire::Op::TsMatch) + " 'k' 7",
      Op(wire::Op::TsMatch) + " 'k' 7",
      Op(wire::Op::Err) + " 'malformed tuple'",
      Op(wire::Op::Err) + " 'malformed template'",
      Op(wire::Op::Err) + " 'unknown op'",
  };
  const char *Names[] = {"tupleSpaceHandler", "shardHandler",
                         "routerHandler"};
  ASSERT_EQ(Seen.size(), 3u);
  for (std::size_t H = 0; H != Seen.size(); ++H)
    EXPECT_EQ(Seen[H], Want) << Names[H];
}

} // namespace
