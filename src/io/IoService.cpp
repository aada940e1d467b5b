//===- io/IoService.cpp - Non-blocking I/O for threads -----------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "io/IoService.h"

#include "core/Current.h"
#include "core/Tcb.h"
#include "core/ThreadController.h"
#include "core/VirtualProcessor.h"
#include "support/Clock.h"

#include <cerrno>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

namespace sting {

IoService::IoService() {
  EpollFd = epoll_create1(EPOLL_CLOEXEC);
  STING_CHECK(EpollFd >= 0, "epoll_create1 failed");
  WakeFd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  STING_CHECK(WakeFd >= 0, "eventfd failed");

  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = WakeFd;
  int Rc = epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev);
  STING_CHECK(Rc == 0, "epoll_ctl(wake) failed");

  Poller = std::thread([this] { pollerLoop(); });
}

IoService::~IoService() {
  Stopping.store(true, std::memory_order_release);
  wake();
  if (Poller.joinable())
    Poller.join();
  // Waiters may still be parked (their descriptors never became ready).
  // Unpark every parked one until all awaitUntil frames have exited: a
  // woken waiter re-checks Stopping before re-parking and retracts its own
  // record, so repeated unparks are harmless and the spin below cannot
  // strand a thread that raced its registration with the shutdown flag.
  // Pending onReadable callbacks are dropped — the service that would have
  // forked them is gone.
  while (ActiveAwaits.load(std::memory_order_acquire) != 0) {
    {
      std::lock_guard<SpinLock> Guard(Lock);
      for (auto &[Fd, List] : Waiters)
        for (Waiter &W : List)
          if (W.Parked)
            ThreadController::unparkTcb(*W.Parked, EnqueueReason::KernelBlock);
    }
    spinForNanos(1000);
  }
  close(WakeFd);
  close(EpollFd);
}

std::size_t IoService::waiterCount() const {
  std::lock_guard<SpinLock> Guard(Lock);
  std::size_t N = 0;
  for (const auto &[Fd, List] : Waiters)
    N += List.size();
  return N;
}

bool IoService::makeNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return false;
  return fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

void IoService::wake() {
  std::uint64_t One = 1;
  [[maybe_unused]] ssize_t Rc = ::write(WakeFd, &One, sizeof(One));
}

/// (Re)arms oneshot interest in \p Fd for the union of pending waiters'
/// events. Caller holds Lock.
void IoService::arm(int Fd) {
  std::uint32_t Events = EPOLLONESHOT;
  for (const Waiter &W : Waiters[Fd])
    Events |= W.Event == IoEvent::Readable ? EPOLLIN : EPOLLOUT;

  epoll_event Ev{};
  Ev.events = Events;
  Ev.data.fd = Fd;
  if (epoll_ctl(EpollFd, EPOLL_CTL_MOD, Fd, &Ev) == 0)
    return;
  int Rc = epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
  STING_CHECK(Rc == 0 || errno == EEXIST, "epoll_ctl(add) failed");
}

void IoService::await(int Fd, IoEvent Event) {
  awaitUntil(Fd, Event, Deadline::never());
}

WaitResult IoService::awaitUntil(int Fd, IoEvent Event, Deadline D) {
  STING_CHECK(onStingThread(), "IoService::await outside a sting thread");
  Tcb &Self = *currentTcb();
  // Visible to the destructor before our record is: a teardown that starts
  // now will keep unparking until this frame has left.
  ActiveAwaits.fetch_add(1, std::memory_order_acq_rel);
  struct AwaitScope {
    std::atomic<std::size_t> &Counter;
    ~AwaitScope() { Counter.fetch_sub(1, std::memory_order_acq_rel); }
  } Scope{ActiveAwaits};
  // A Timeout sets errno here, inside the counted frame: once Scope has
  // decremented ActiveAwaits the destructor may free this service, so a
  // caller must read the reason from errno, never from stopping().
  auto TimedOut = [this] {
    errno = Stopping.load(std::memory_order_acquire) ? ECANCELED : ETIMEDOUT;
    return WaitResult::Timeout;
  };
  if (Stopping.load(std::memory_order_acquire))
    return TimedOut();
  IoWaitState State;
  {
    std::lock_guard<SpinLock> Guard(Lock);
    Waiter W;
    W.Parked = &Self;
    W.State = &State;
    W.Event = Event;
    Waiters[Fd].push_back(std::move(W));
    arm(Fd);
  }
  Stats.Waits.fetch_add(1, std::memory_order_relaxed);

  // Retracts this wait's record. \returns false if the poller already
  // extracted it (a wake is in flight or landed).
  auto Retract = [&] {
    std::lock_guard<SpinLock> Guard(Lock);
    auto It = Waiters.find(Fd);
    if (It == Waiters.end())
      return false;
    auto &List = It->second;
    for (std::size_t J = 0; J != List.size(); ++J) {
      if (List[J].State != &State)
        continue;
      List.erase(List.begin() + static_cast<std::ptrdiff_t>(J));
      if (List.empty())
        Waiters.erase(It);
      return true;
    }
    return false;
  };
  // Once the poller has our record, its unpark must land before the
  // stack-resident State dies. Pure spin: a controller call here could
  // itself throw and abandon the record mid-store.
  auto DrainInFlightWake = [&] {
    while (!State.UnparkDone.load(std::memory_order_acquire))
      spinForNanos(100);
  };

  try {
    // Ready is checked *before* the deadline each pass, so a readiness
    // notification racing the deadline is never reported as a timeout.
    // Shutdown is checked like an expired deadline: the destructor keeps
    // unparking registered waiters, so this loop always gets a pass in
    // which to retract and leave.
    while (!State.Ready.load(std::memory_order_acquire)) {
      if (D.expired() || Stopping.load(std::memory_order_acquire)) {
        if (Retract())
          return TimedOut();
        DrainInFlightWake(); // the wake won the race
        return WaitResult::Ready;
      }
      ThreadController::parkCurrent(ParkClass::Kernel, this, D);
    }
  } catch (...) {
    // Async cancellation mid-wait: leave no record behind; if the poller
    // beat us to it, absorb its unpark before unwinding further.
    if (!Retract())
      DrainInFlightWake();
    throw;
  }
  DrainInFlightWake();
  return WaitResult::Ready;
}

void IoService::onReadable(int Fd, UniqueFunction<void()> Callback) {
  STING_CHECK(onStingThread(),
              "IoService::onReadable outside a sting thread");
  std::lock_guard<SpinLock> Guard(Lock);
  Waiter W;
  W.Callback = std::move(Callback);
  W.Vp = currentVp();
  W.Event = IoEvent::Readable;
  Waiters[Fd].push_back(std::move(W));
  arm(Fd);
}

void IoService::pollerLoop() {
  epoll_event Events[16];
  while (!Stopping.load(std::memory_order_acquire)) {
    int N = epoll_wait(EpollFd, Events, 16, /*timeout ms=*/100);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int I = 0; I != N; ++I) {
      int Fd = Events[I].data.fd;
      if (Fd == WakeFd) {
        std::uint64_t Drain;
        while (::read(WakeFd, &Drain, sizeof(Drain)) > 0) {
        }
        continue;
      }

      const bool Readable =
          Events[I].events & (EPOLLIN | EPOLLHUP | EPOLLERR);
      const bool Writable =
          Events[I].events & (EPOLLOUT | EPOLLHUP | EPOLLERR);

      std::vector<Waiter> Ready;
      {
        std::lock_guard<SpinLock> Guard(Lock);
        auto It = Waiters.find(Fd);
        if (It == Waiters.end())
          continue;
        auto &List = It->second;
        for (std::size_t J = 0; J != List.size();) {
          bool Matches = List[J].Event == IoEvent::Readable ? Readable
                                                            : Writable;
          if (!Matches) {
            ++J;
            continue;
          }
          Ready.push_back(std::move(List[J]));
          List.erase(List.begin() + static_cast<std::ptrdiff_t>(J));
        }
        if (List.empty())
          Waiters.erase(It);
        else
          arm(Fd); // remaining waiters keep their interest
      }

      for (Waiter &W : Ready) {
        if (W.Parked) {
          Stats.Wakeups.fetch_add(1, std::memory_order_relaxed);
          W.State->Ready.store(true, std::memory_order_release);
          ThreadController::unparkTcb(*W.Parked,
                                      EnqueueReason::KernelBlock);
          // After this store the waiter may return and destroy its State.
          W.State->UnparkDone.store(true, std::memory_order_release);
          continue;
        }
        Stats.Callbacks.fetch_add(1, std::memory_order_relaxed);
        SpawnOptions Opts;
        Opts.Vp = W.Vp;
        ThreadController::forkThread(
            [Cb = std::move(W.Callback)]() mutable -> AnyValue {
              Cb();
              return AnyValue();
            },
            Opts);
      }
    }
  }
}

ssize_t IoService::read(int Fd, void *Buf, std::size_t N) {
  for (;;) {
    ssize_t Rc = ::read(Fd, Buf, N);
    if (Rc >= 0)
      return Rc;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return -1;
    // On Timeout awaitUntil has set errno; this frame must not touch
    // the service again, which a destructor may already have freed.
    if (awaitUntil(Fd, IoEvent::Readable, Deadline::never()) ==
        WaitResult::Timeout)
      return -1;
  }
}

ssize_t IoService::write(int Fd, const void *Buf, std::size_t N) {
  for (;;) {
    ssize_t Rc = ::write(Fd, Buf, N);
    if (Rc >= 0)
      return Rc;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return -1;
    // On Timeout awaitUntil has set errno; this frame must not touch
    // the service again, which a destructor may already have freed.
    if (awaitUntil(Fd, IoEvent::Writable, Deadline::never()) ==
        WaitResult::Timeout)
      return -1;
  }
}

bool IoService::writeAll(int Fd, const void *Buf, std::size_t N) {
  const char *P = static_cast<const char *>(Buf);
  std::size_t Left = N;
  while (Left != 0) {
    ssize_t Rc = write(Fd, P, Left);
    if (Rc <= 0)
      return false;
    P += Rc;
    Left -= static_cast<std::size_t>(Rc);
  }
  return true;
}

} // namespace sting
