//===- core/PreemptionClock.h - Preemption and timers -----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine's clock: raises per-VP preemption flags when a thread's
/// quantum expires, and resumes threads suspended with a quantum
/// ("(thread-suspend thread . quantum) ... the thread is resumed when the
/// period specified has elapsed", paper section 3.1).
///
/// Substitution note (DESIGN.md section 1): the paper preempts via timer
/// interrupts; here a watchdog OS thread raises flags that threads observe
/// at thread-controller entry points and explicit checkpoints. The paper's
/// protocol is likewise deferred — a preempted thread "enters the
/// controller", and TCB flag bits may defer the preemption (section 4.2.2).
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_PREEMPTIONCLOCK_H
#define STING_CORE_PREEMPTIONCLOCK_H

#include "core/Thread.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace sting {

class Tcb;
class VirtualMachine;

/// The per-machine watchdog thread.
class PreemptionClock {
public:
  PreemptionClock(VirtualMachine &Vm, std::uint64_t TickNanos,
                  bool PreemptionEnabled);
  ~PreemptionClock();

  PreemptionClock(const PreemptionClock &) = delete;
  PreemptionClock &operator=(const PreemptionClock &) = delete;

  /// Globally enables/disables quantum preemption (per-thread and per-TCB
  /// controls still apply on top).
  void setPreemptionEnabled(bool Enabled);
  bool preemptionEnabled() const {
    return Enabled.load(std::memory_order_relaxed);
  }

  /// Schedules \p T to be resumed (threadRun) \p DelayNanos from now if it
  /// is still suspended at that point.
  void scheduleResume(ThreadRef T, std::uint64_t DelayNanos);

  /// Arms \p C's park timeout: at the absolute monotonic time
  /// \p DeadlineNanos, wakes the thread bound to \p C if it is still in a
  /// timed park with that exact deadline (ThreadController::deliverTimeout).
  /// A TCB has at most one queued timeout; arming replaces any left over.
  void scheduleTimeout(Tcb &C, std::uint64_t DeadlineNanos);

  /// Removes \p C's queued park timeout, if any. Lock-free when none is
  /// queued (the common case for a park that timed out).
  void cancelTimeout(Tcb &C);

  /// Number of timers currently armed (resumes + park timeouts of parks
  /// still in progress); a heartbeat input for the stall watchdog — a
  /// machine with live threads, no ready work and no pending timers is
  /// wedged.
  std::size_t pendingTimers() const;

  /// Number of preempt flags raised so far (for tests/benches).
  std::uint64_t preemptsRaised() const {
    return Raised.load(std::memory_order_relaxed);
  }

  void stop();

private:
  void run();
  void fireDueTimers(std::uint64_t Now);
  void raisePreemptFlags(std::uint64_t Now);

  struct Timer {
    std::uint64_t DeadlineNanos = 0;
    ThreadRef Target;
    /// Null for a resume (threadRun the target when a suspend quantum
    /// elapses); otherwise the parked TCB a park timeout is delivered to,
    /// which tracks this timer's heap index.
    Tcb *Owner = nullptr;
  };

  // Indexed binary min-heap on DeadlineNanos; TimerLock held.
  void pushTimer(Timer T);
  Timer removeTimerAt(std::size_t I);
  void placeTimer(std::size_t I, Timer T);
  void siftUp(std::size_t I);
  void siftDown(std::size_t I);

  VirtualMachine *Vm;
  std::uint64_t TickNanos;
  std::atomic<bool> Enabled;
  std::atomic<bool> Stopping{false};
  std::atomic<std::uint64_t> Raised{0};

  mutable std::mutex TimerLock;
  std::condition_variable TimerCv;
  std::vector<Timer> Timers;
  /// When the clock thread's current wait ends; an arm notifies it only
  /// for an earlier deadline. Guarded by TimerLock.
  std::uint64_t NextWakeNanos = 0;

  std::thread Os;
};

/// Scoped preemption disable for the current thread — the paper's
/// (without-preemption body) special form (section 4.2.2). A preemption
/// arriving inside the scope is deferred and honored on exit.
class WithoutPreemption {
public:
  WithoutPreemption();
  ~WithoutPreemption();

  WithoutPreemption(const WithoutPreemption &) = delete;
  WithoutPreemption &operator=(const WithoutPreemption &) = delete;
};

/// The paper's more general (without-interrupts body): defers preemption
/// *and* every asynchronous transition request (terminate, suspend,
/// cross-thread raise) until the scope exits.
class WithoutInterrupts {
public:
  WithoutInterrupts();
  ~WithoutInterrupts();

  WithoutInterrupts(const WithoutInterrupts &) = delete;
  WithoutInterrupts &operator=(const WithoutInterrupts &) = delete;

private:
  WithoutPreemption NoPreempt;
};

} // namespace sting

#endif // STING_CORE_PREEMPTIONCLOCK_H
