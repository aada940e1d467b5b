//===- net/Socket.cpp - Thread-parking TCP sockets ---------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "net/Socket.h"

#include "core/Current.h"
#include "core/VirtualProcessor.h"
#include "obs/TraceBuffer.h"
#include "support/Chaos.h"
#include "support/Clock.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sting::net {

namespace {

/// Charges a per-VP scheduler counter when running on a VP (client code on
/// plain OS threads — e.g. a test harness — simply goes uncounted).
template <typename Pick> void chargeVp(Pick P) {
  if (VirtualProcessor *Vp = currentVp())
    P(Vp->stats()).inc();
}

/// Turns Nagle off on a connected TCP socket: the wire layer writes whole
/// frames and waits for replies, so Nagle plus delayed ACKs would stall
/// every small request-response exchange by tens of milliseconds.
void setNoDelay(int Fd) {
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

} // namespace

Socket::Socket(IoService &Io, int Fd) : Io(&Io), Fd(Fd) {
  if (Fd >= 0)
    IoService::makeNonBlocking(Fd);
}

void Socket::close() {
  if (Fd < 0)
    return;
  ::close(Fd);
  Fd = -1;
}

ssize_t Socket::readUntil(void *Buf, std::size_t N, Deadline D) {
  if (Fd < 0) {
    errno = EBADF;
    return -1;
  }
  // Chaos: truncate the request to one byte so callers that assume a read
  // fills their buffer in one call get caught by the soak.
  std::size_t Want = N;
  if (N > 1 && STING_CHAOS_FIRE(NetShortIo)) {
    STING_TRACE_EVENT(ChaosInject, 0,
                      static_cast<std::uint32_t>(chaos::Site::NetShortIo));
    Want = 1;
  }
  for (;;) {
    ssize_t Rc = ::read(Fd, Buf, Want);
    if (Rc >= 0) {
      if (Rc > 0)
        chargeVp([](obs::SchedStats &S) -> auto & { return S.NetReads; });
      return Rc;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return -1;
    WaitResult W = Io->awaitUntil(Fd, IoEvent::Readable, D);
    if (W == WaitResult::Timeout)
      return -1; // errno is awaitUntil's ECANCELED or ETIMEDOUT
  }
}

ssize_t Socket::writeUntil(const void *Buf, std::size_t N, Deadline D) {
  if (Fd < 0) {
    errno = EBADF;
    return -1;
  }
  std::size_t Want = N;
  if (N > 1 && STING_CHAOS_FIRE(NetShortIo)) {
    STING_TRACE_EVENT(ChaosInject, 0,
                      static_cast<std::uint32_t>(chaos::Site::NetShortIo));
    Want = 1;
  }
  for (;;) {
    // MSG_NOSIGNAL: a peer that closed mid-write yields EPIPE, not a
    // process-wide SIGPIPE.
    ssize_t Rc = ::send(Fd, Buf, Want, MSG_NOSIGNAL);
    if (Rc >= 0) {
      if (Rc > 0)
        chargeVp([](obs::SchedStats &S) -> auto & { return S.NetWrites; });
      return Rc;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return -1;
    WaitResult W = Io->awaitUntil(Fd, IoEvent::Writable, D);
    if (W == WaitResult::Timeout)
      return -1; // errno is awaitUntil's ECANCELED or ETIMEDOUT
  }
}

bool Socket::writeAllUntil(const void *Buf, std::size_t N, Deadline D) {
  const char *P = static_cast<const char *>(Buf);
  std::size_t Left = N;
  while (Left != 0) {
    ssize_t Rc = writeUntil(P, Left, D);
    if (Rc <= 0)
      return false;
    P += Rc;
    Left -= static_cast<std::size_t>(Rc);
  }
  return true;
}

Socket Socket::connectUntil(IoService &Io, const char *Host,
                            std::uint16_t Port, Deadline D) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Socket();

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (inet_pton(AF_INET, Host, &Addr.sin_addr) != 1) {
    ::close(Fd);
    errno = EINVAL;
    return Socket();
  }

  int Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  if (Rc != 0 && errno != EINPROGRESS) {
    int Saved = errno;
    ::close(Fd);
    errno = Saved;
    return Socket();
  }
  if (Rc != 0) {
    // Non-blocking connect completes when the descriptor turns writable;
    // success/failure is then read back through SO_ERROR.
    WaitResult W = Io.awaitUntil(Fd, IoEvent::Writable, D);
    if (W == WaitResult::Timeout) {
      int Saved = errno; // awaitUntil's ECANCELED or ETIMEDOUT
      ::close(Fd);
      errno = Saved;
      return Socket();
    }
    int Err = 0;
    socklen_t Len = sizeof(Err);
    if (getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Err, &Len) != 0 || Err != 0) {
      ::close(Fd);
      errno = Err ? Err : ECONNREFUSED;
      return Socket();
    }
  }
  setNoDelay(Fd);
  return Socket(Io, Fd);
}

Listener Listener::listenOn(IoService &Io, std::uint16_t Port, int Backlog,
                            bool ReusePort) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Listener();

  int One = 1;
  setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (ReusePort)
    setsockopt(Fd, SOL_SOCKET, SO_REUSEPORT, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, Backlog) != 0) {
    int Saved = errno;
    ::close(Fd);
    errno = Saved;
    return Listener();
  }

  socklen_t Len = sizeof(Addr);
  if (getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    int Saved = errno;
    ::close(Fd);
    errno = Saved;
    return Listener();
  }

  Listener L;
  L.Io = &Io;
  L.Fd = Fd;
  L.BoundPort = ntohs(Addr.sin_port);
  return L;
}

void Listener::close() {
  if (Fd < 0)
    return;
  ::close(Fd);
  Fd = -1;
}

Socket Listener::acceptUntil(Deadline D) {
  if (Fd < 0) {
    errno = EBADF;
    return Socket();
  }
  for (;;) {
    int Conn = ::accept4(Fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Conn >= 0) {
      if (STING_CHAOS_FIRE(NetAcceptDeny)) {
        // Pretend the backlog was empty: the connection stays accepted
        // (closing it would change observable behavior), but this lap
        // stalls briefly as if the thread had re-parked, shaking out
        // accept-loop assumptions about prompt hand-off.
        STING_TRACE_EVENT(
            ChaosInject, 0,
            static_cast<std::uint32_t>(chaos::Site::NetAcceptDeny));
        spinForNanos(50'000);
      }
      chargeVp([](obs::SchedStats &S) -> auto & { return S.NetAccepts; });
      setNoDelay(Conn);
      return Socket(*Io, Conn);
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return Socket();
    WaitResult W = Io->awaitUntil(Fd, IoEvent::Readable, D);
    if (W == WaitResult::Timeout)
      return Socket(); // errno is awaitUntil's ECANCELED or ETIMEDOUT
  }
}

} // namespace sting::net
