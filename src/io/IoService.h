//===- io/IoService.h - Non-blocking I/O for threads -------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Non-blocking I/O (paper section 2: the program model "permits
/// non-blocking I/O"; section 6: "it supports non-blocking I/O calls with
/// call-back"). A kernel-level read on a user-level thread system would
/// stall the whole physical processor; instead, threads park on an I/O
/// service whose poller (one OS thread around epoll) resumes them when
/// their descriptor is ready.
///
/// Two forms, as in the paper:
///   - synchronous-looking: read()/write() park only the calling *thread*;
///     the VP keeps dispatching others;
///   - call-back: onReadable() forks a fresh thread when the descriptor
///     becomes ready.
///
//===----------------------------------------------------------------------===//

#ifndef STING_IO_IOSERVICE_H
#define STING_IO_IOSERVICE_H

#include "core/Thread.h"
#include "support/Deadline.h"
#include "support/SpinLock.h"
#include "support/UniqueFunction.h"

#include <atomic>
#include <cstdint>
#include <sys/types.h>
#include <thread>
#include <unordered_map>
#include <vector>

namespace sting {

class Tcb;
class VirtualProcessor;

/// Readiness conditions.
enum class IoEvent : std::uint8_t { Readable, Writable };

/// Statistics surfaced to tests.
struct IoStats {
  std::atomic<std::uint64_t> Waits{0};
  std::atomic<std::uint64_t> Wakeups{0};
  std::atomic<std::uint64_t> Callbacks{0};
};

/// An I/O readiness service for sting threads.
class IoService {
public:
  IoService();
  ~IoService();

  IoService(const IoService &) = delete;
  IoService &operator=(const IoService &) = delete;

  /// Sets O_NONBLOCK on \p Fd (required before using it with read/write
  /// below). \returns false on error.
  static bool makeNonBlocking(int Fd);

  /// Parks the calling thread until \p Fd satisfies \p Event. Must run on
  /// a sting thread. Tolerates spurious wakeups (re-parks) and async
  /// cancellation (the waiter record is retracted on unwind).
  void await(int Fd, IoEvent Event);

  /// Timed await: \returns Timeout if \p D expired before readiness. A
  /// readiness notification racing the deadline wins. Also returns Timeout
  /// (after retracting the waiter record) when the service is shutting
  /// down, so waiters drain out of a dying poller instead of hanging. A
  /// Timeout sets errno to ECANCELED (shutting down) or ETIMEDOUT; read it
  /// there, not from stopping(), since the service may be gone by then.
  WaitResult awaitUntil(int Fd, IoEvent Event, Deadline D);

  /// Reads up to \p N bytes, parking the thread (not the VP) while the
  /// descriptor is empty. \returns bytes read, 0 on EOF, -1 on error
  /// (errno preserved).
  ssize_t read(int Fd, void *Buf, std::size_t N);

  /// Writes up to \p N bytes, parking while the descriptor is full.
  ssize_t write(int Fd, const void *Buf, std::size_t N);

  /// Writes all \p N bytes (multiple rounds if needed). \returns false on
  /// error or EOF.
  bool writeAll(int Fd, const void *Buf, std::size_t N);

  /// The paper's call-back form: when \p Fd becomes readable, fork
  /// \p Callback as a fresh thread (in the registering thread's machine,
  /// on its VP). One-shot.
  void onReadable(int Fd, UniqueFunction<void()> Callback);

  const IoStats &stats() const { return Stats; }

  /// Number of waiter records currently registered (parked threads plus
  /// pending callbacks). For tests: 0 means no queue residue.
  std::size_t waiterCount() const;

  /// True once the destructor has begun; read/write return ECANCELED and
  /// awaitUntil returns Timeout from this point on.
  bool stopping() const { return Stopping.load(std::memory_order_acquire); }

private:
  /// Stack-resident state of one parked await; lets the waiter re-check
  /// readiness after spurious wakes and lets the poller signal when it has
  /// finished touching the waiter's TCB (so the record can safely die).
  struct IoWaitState {
    std::atomic<bool> Ready{false};
    std::atomic<bool> UnparkDone{false};
  };

  struct Waiter {
    Tcb *Parked = nullptr; ///< thread to unpark, or
    IoWaitState *State = nullptr;    ///< parked waiter's stack record
    UniqueFunction<void()> Callback; ///< callback to fork
    VirtualProcessor *Vp = nullptr;  ///< fork target for callbacks
    IoEvent Event = IoEvent::Readable;
  };

  void pollerLoop();
  void arm(int Fd);
  void wake();

  int EpollFd = -1;
  int WakeFd = -1; ///< eventfd used to nudge the poller
  mutable SpinLock Lock;
  std::unordered_map<int, std::vector<Waiter>> Waiters;
  std::atomic<bool> Stopping{false};
  /// Threads currently inside awaitUntil; the destructor unparks stragglers
  /// and spins until this reaches zero before tearing members down.
  std::atomic<std::size_t> ActiveAwaits{0};
  IoStats Stats;
  std::thread Poller;
};

} // namespace sting

#endif // STING_IO_IOSERVICE_H
