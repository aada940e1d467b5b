//===- tests/net/SocketTest.cpp - Socket/Listener parking semantics -----------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "net/Socket.h"

#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "gtest/gtest.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

namespace {

using namespace sting;
using namespace sting::net;
using TC = ThreadController;

TEST(SocketTest, ConnectAcceptRoundTrip) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    Listener L = Listener::listenOn(Io, 0);
    if (!L.valid())
      return AnyValue(false);
    EXPECT_NE(L.port(), 0);

    ThreadRef Client = TC::forkThread([&]() -> AnyValue {
      Socket S = Socket::connectTo(Io, "127.0.0.1", L.port());
      if (!S.valid())
        return AnyValue(false);
      return AnyValue(S.writeAll("ping", 4));
    });

    Socket Conn = L.accept();
    if (!Conn.valid())
      return AnyValue(false);
    char Buf[4];
    bool Ok = true;
    std::size_t Got = 0;
    while (Got != 4) {
      ssize_t N = Conn.read(Buf + Got, 4 - Got);
      if (N <= 0) {
        Ok = false;
        break;
      }
      Got += static_cast<std::size_t>(N);
    }
    Ok = Ok && std::memcmp(Buf, "ping", 4) == 0;
    return AnyValue(Ok && TC::threadValue(*Client).as<bool>());
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(SocketTest, AcceptParksThreadNotProcessor) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    Listener L = Listener::listenOn(Io, 0);
    std::atomic<bool> Accepting{false};
    ThreadRef Acceptor = TC::forkThread([&]() -> AnyValue {
      Accepting.store(true);
      Socket S = L.accept();
      return AnyValue(S.valid());
    });
    // The acceptor parks; this thread keeps running on the same VP.
    while (!Accepting.load())
      TC::yieldProcessor();
    ThreadRef Other =
        TC::forkThread([]() -> AnyValue { return AnyValue(7); });
    TC::threadWait(*Other);
    EXPECT_EQ(Other->valueAs<int>(), 7);
    EXPECT_FALSE(Acceptor->isDetermined());

    Socket C = Socket::connectTo(Io, "127.0.0.1", L.port());
    EXPECT_TRUE(C.valid());
    return AnyValue(TC::threadValue(*Acceptor).as<bool>());
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(SocketTest, AcceptUntilTimesOut) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    Listener L = Listener::listenOn(Io, 0);
    Socket S = L.acceptUntil(Deadline::in(5'000'000)); // 5ms, nobody knocks
    EXPECT_FALSE(S.valid());
    EXPECT_EQ(errno, ETIMEDOUT);
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(SocketTest, ReadUntilTimesOutButDataStillWins) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    Listener L = Listener::listenOn(Io, 0);
    Socket C = Socket::connectTo(Io, "127.0.0.1", L.port());
    Socket A = L.accept();
    EXPECT_TRUE(C.valid() && A.valid());

    // Quiet peer: timed read expires.
    char Buf[8];
    ssize_t N = A.readUntil(Buf, sizeof(Buf), Deadline::in(5'000'000));
    EXPECT_EQ(N, -1);
    EXPECT_EQ(errno, ETIMEDOUT);

    // Data present: the same call returns it well before the deadline. A
    // short read (one byte, e.g. under chaos net-short-io) is legal; the
    // rest must still arrive without a timeout.
    EXPECT_TRUE(C.writeAll("ok", 2));
    ssize_t Got = 0;
    while (Got < 2) {
      N = A.readUntil(Buf + Got, sizeof(Buf) - Got,
                      Deadline::in(1'000'000'000));
      if (N <= 0)
        break;
      Got += N;
    }
    EXPECT_EQ(Got, 2);
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(SocketTest, TerminateCancelsParkedReader) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    Listener L = Listener::listenOn(Io, 0);
    Socket C = Socket::connectTo(Io, "127.0.0.1", L.port());
    Socket A = L.accept();
    EXPECT_TRUE(C.valid() && A.valid());

    std::atomic<bool> Parked{false};
    ThreadRef Reader = TC::forkThread([&]() -> AnyValue {
      char Buf[8];
      Parked.store(true);
      (void)A.read(Buf, sizeof(Buf)); // never satisfied; peer stays quiet
      return AnyValue(false);
    });
    while (!Parked.load())
      TC::yieldProcessor();

    // Async cancellation reaches a thread parked on a descriptor: the
    // waiter record is retracted on unwind and the thread determines.
    TC::threadTerminate(*Reader);
    TC::threadWait(*Reader);
    EXPECT_TRUE(Reader->wasTerminated());
    EXPECT_EQ(Io.waiterCount(), 0u); // no queue residue
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(SocketTest, ConnectToDeadPortFails) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    // Bind-then-close to get a port that is (very likely) not listening.
    std::uint16_t DeadPort;
    {
      Listener L = Listener::listenOn(Io, 0);
      DeadPort = L.port();
    }
    Socket S = Socket::connectTo(Io, "127.0.0.1", DeadPort);
    EXPECT_FALSE(S.valid());
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(SocketTest, ReadsAndWritesChargeVpCounters) {
  VirtualMachine Vm;
  IoService Io;
  Vm.run([&]() -> AnyValue {
    Listener L = Listener::listenOn(Io, 0);
    Socket C = Socket::connectTo(Io, "127.0.0.1", L.port());
    Socket A = L.accept();
    char Buf[4];
    EXPECT_TRUE(C.writeAll("data", 4));
    std::size_t Got = 0;
    while (Got != 4) {
      ssize_t N = A.readUntil(Buf + Got, 4 - Got, Deadline::in(1'000'000'000));
      EXPECT_GT(N, 0);
      if (N <= 0)
        return AnyValue();
      Got += static_cast<std::size_t>(N);
    }
    return AnyValue();
  });
  obs::SchedStatsSnapshot S = Vm.aggregateStats();
  EXPECT_GE(S.NetAccepts, 1u);
  EXPECT_GE(S.NetReads, 1u);
  EXPECT_GE(S.NetWrites, 1u);
}

TEST(SocketTest, ConnectedSocketsDisableNagle) {
  // Nagle plus delayed ACKs stalls small request-response frames by tens
  // of milliseconds, so both ends of every connection set TCP_NODELAY.
  VirtualMachine Vm;
  IoService Io;
  Vm.run([&]() -> AnyValue {
    Listener L = Listener::listenOn(Io, 0);
    Socket C = Socket::connectTo(Io, "127.0.0.1", L.port());
    Socket A = L.accept();
    EXPECT_TRUE(C.valid());
    EXPECT_TRUE(A.valid());
    for (const Socket *S : {&C, &A}) {
      int NoDelay = 0;
      socklen_t Len = sizeof(NoDelay);
      EXPECT_EQ(getsockopt(S->fd(), IPPROTO_TCP, TCP_NODELAY, &NoDelay, &Len),
                0);
      EXPECT_NE(NoDelay, 0);
    }
    return AnyValue();
  });
}

} // namespace
