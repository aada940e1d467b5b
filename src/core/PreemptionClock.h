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
/// period specified has elapsed", paper section 3.1), and delivers timed
/// park timeouts.
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
#include "support/SpinLock.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sting {

class Tcb;
class VirtualMachine;

/// The per-machine watchdog thread.
///
/// Timers live in one indexed binary min-heap per VP, each under its own
/// spin lock: a timed park arms on the heap of the VP it runs on, and its
/// cancel goes to whichever heap the TCB recorded, so the blocking path
/// never touches a machine-wide lock. The clock thread reads each heap's
/// published earliest deadline and locks a heap only when something in it
/// is due. TimerLock guards only the clock's sleep; arm() and run() hold
/// the handshake that keeps an early arm from being slept through.
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

  /// Arms \p C's park timeout on the heap of the VP \p C runs on: at the
  /// absolute monotonic time \p DeadlineNanos, wakes the thread bound to
  /// \p C if it is still in a timed park with that exact deadline
  /// (ThreadController::deliverTimeout). A TCB has at most one queued
  /// timeout; arming replaces any left over.
  void scheduleTimeout(Tcb &C, std::uint64_t DeadlineNanos);

  /// Removes \p C's queued park timeout, if any, from the heap it was
  /// armed on (which need not be the current VP's). Lock-free when none is
  /// queued (the common case for a park that timed out).
  void cancelTimeout(Tcb &C);

  /// Number of timers currently armed (resumes + park timeouts of parks
  /// still in progress), summed over the per-VP heaps; a heartbeat input
  /// for the stall watchdog — a machine with live threads, no ready work
  /// and no pending timers is wedged.
  std::size_t pendingTimers() const;

  /// Number of preempt flags raised so far (for tests/benches).
  std::uint64_t preemptsRaised() const {
    return Raised.load(std::memory_order_relaxed);
  }

  void stop();

private:
  struct Timer {
    std::uint64_t DeadlineNanos = 0;
    /// The thread to resume. Empty for a park timeout while it is armed:
    /// fireDueTimers retains Owner's thread when the timer comes due.
    ThreadRef Target;
    /// Null for a resume (threadRun the target when a suspend quantum
    /// elapses); otherwise the parked TCB a park timeout is delivered to,
    /// which tracks this timer's heap and index.
    Tcb *Owner = nullptr;
  };

  static constexpr std::uint64_t NoDeadline = ~std::uint64_t(0);

  /// One VP's timers: an indexed binary min-heap on DeadlineNanos, guarded
  /// by Lock, on its own cache line.
  struct alignas(64) TimerHeap {
    SpinLock Lock;
    std::vector<Timer> Timers;
    /// Timers.front()'s deadline, or NoDeadline; republished under Lock
    /// after every change so the clock can skip heaps with nothing due.
    std::atomic<std::uint64_t> Earliest{NoDeadline};

    void push(Timer T);
    Timer removeAt(std::size_t I);
    void publish(); ///< Lock held

  private:
    void place(std::size_t I, Timer T);
    void siftUp(std::size_t I);
    void siftDown(std::size_t I);
  };

  void run();
  void fireDueTimers(std::uint64_t Now);
  void raisePreemptFlags(std::uint64_t Now);
  /// Queues \p T on heap \p HeapIndex, then wakes the clock if it plans
  /// to sleep past T's deadline.
  void arm(std::size_t HeapIndex, Timer T);
  /// The earliest deadline any heap has published, or NoDeadline.
  std::uint64_t earliestDeadline() const;

  VirtualMachine *Vm;
  std::uint64_t TickNanos;
  std::atomic<bool> Enabled;
  std::atomic<bool> Stopping{false};
  std::atomic<std::uint64_t> Raised{0};

  std::size_t NumHeaps;
  std::unique_ptr<TimerHeap[]> Heaps; ///< one per VP, by VP index

  /// When the clock thread's current sleep ends, or Scanning while it
  /// rescans the heaps. An arm with an earlier deadline sets Kicked under
  /// TimerLock and notifies; Scanning is earlier than every deadline, so
  /// arms racing a rescan never kick — the clock re-reads the heaps after
  /// it publishes its next plan instead.
  static constexpr std::uint64_t Scanning = 0;
  std::atomic<std::uint64_t> NextWakeNanos{Scanning};

  std::mutex TimerLock;
  std::condition_variable TimerCv;
  bool Kicked = false; ///< guarded by TimerLock

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
