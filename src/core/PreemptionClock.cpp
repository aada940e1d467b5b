//===- core/PreemptionClock.cpp - Preemption and timers --------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/PreemptionClock.h"

#include "core/Current.h"
#include "core/Tcb.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "support/Clock.h"

#include <chrono>

namespace sting {

PreemptionClock::PreemptionClock(VirtualMachine &Vm, std::uint64_t TickNanos,
                                 bool PreemptionEnabled)
    : Vm(&Vm), TickNanos(TickNanos ? TickNanos : 1'000'000),
      Enabled(PreemptionEnabled) {
  Os = std::thread([this] { run(); });
}

PreemptionClock::~PreemptionClock() { stop(); }

void PreemptionClock::stop() {
  {
    std::lock_guard<std::mutex> Guard(TimerLock);
    if (Stopping.exchange(true))
      return;
  }
  TimerCv.notify_all();
  if (Os.joinable())
    Os.join();
}

void PreemptionClock::setPreemptionEnabled(bool NewEnabled) {
  Enabled.store(NewEnabled, std::memory_order_relaxed);
  TimerCv.notify_all();
}

//===----------------------------------------------------------------------===//
// Timer heap
//===----------------------------------------------------------------------===//

void PreemptionClock::placeTimer(std::size_t I, Timer T) {
  if (T.Owner)
    T.Owner->TimeoutIndex.store(I, std::memory_order_relaxed);
  Timers[I] = std::move(T);
}

void PreemptionClock::siftUp(std::size_t I) {
  Timer T = std::move(Timers[I]);
  while (I != 0) {
    std::size_t Parent = (I - 1) / 2;
    if (Timers[Parent].DeadlineNanos <= T.DeadlineNanos)
      break;
    placeTimer(I, std::move(Timers[Parent]));
    I = Parent;
  }
  placeTimer(I, std::move(T));
}

void PreemptionClock::siftDown(std::size_t I) {
  Timer T = std::move(Timers[I]);
  for (;;) {
    std::size_t Child = 2 * I + 1;
    if (Child >= Timers.size())
      break;
    if (Child + 1 < Timers.size() &&
        Timers[Child + 1].DeadlineNanos < Timers[Child].DeadlineNanos)
      ++Child;
    if (T.DeadlineNanos <= Timers[Child].DeadlineNanos)
      break;
    placeTimer(I, std::move(Timers[Child]));
    I = Child;
  }
  placeTimer(I, std::move(T));
}

PreemptionClock::Timer PreemptionClock::removeTimerAt(std::size_t I) {
  Timer Removed = std::move(Timers[I]);
  if (Removed.Owner)
    Removed.Owner->TimeoutIndex.store(Tcb::NoTimeout,
                                      std::memory_order_relaxed);
  Timer Last = std::move(Timers.back());
  Timers.pop_back();
  if (I != Timers.size()) {
    Timers[I] = std::move(Last);
    siftUp(I);
    siftDown(I);
  }
  return Removed;
}

void PreemptionClock::pushTimer(Timer T) {
  const bool Earlier = T.DeadlineNanos < NextWakeNanos;
  Timers.push_back(std::move(T));
  siftUp(Timers.size() - 1);
  if (!Earlier)
    return;
  // The clock thread sleeps past this deadline: cut its wait short. A
  // later deadline needs no wake — the clock re-reads the heap under
  // TimerLock before every wait.
  NextWakeNanos = Timers.front().DeadlineNanos;
  TimerCv.notify_one();
}

void PreemptionClock::scheduleResume(ThreadRef T, std::uint64_t DelayNanos) {
  std::lock_guard<std::mutex> Guard(TimerLock);
  pushTimer(Timer{nowNanos() + DelayNanos, std::move(T)});
}

void PreemptionClock::scheduleTimeout(Tcb &C, std::uint64_t DeadlineNanos) {
  Timer Replaced;
  std::lock_guard<std::mutex> Guard(TimerLock);
  if (std::size_t I = C.TimeoutIndex.load(std::memory_order_relaxed);
      I != Tcb::NoTimeout)
    Replaced = removeTimerAt(I);
  pushTimer(Timer{DeadlineNanos, ThreadRef(C.thread()), &C});
}

void PreemptionClock::cancelTimeout(Tcb &C) {
  // Only the owner arms, so a NoTimeout read here cannot be overtaken by
  // a concurrent arm; any other value is re-checked under the lock (the
  // clock may have fired the timer since).
  if (C.TimeoutIndex.load(std::memory_order_relaxed) == Tcb::NoTimeout)
    return;
  Timer Removed; // its ThreadRef drops after the lock
  std::lock_guard<std::mutex> Guard(TimerLock);
  if (std::size_t I = C.TimeoutIndex.load(std::memory_order_relaxed);
      I != Tcb::NoTimeout)
    Removed = removeTimerAt(I);
}

std::size_t PreemptionClock::pendingTimers() const {
  std::lock_guard<std::mutex> Guard(TimerLock);
  return Timers.size();
}

void PreemptionClock::raisePreemptFlags(std::uint64_t Now) {
  for (const auto &Vp : Vm->vps()) {
    std::uint64_t Deadline = Vp->SliceDeadline.load(std::memory_order_relaxed);
    if (Deadline == 0 || Now < Deadline)
      continue;
    if (!Vp->PreemptFlag.exchange(true, std::memory_order_relaxed))
      Raised.fetch_add(1, std::memory_order_relaxed);
  }
}

void PreemptionClock::fireDueTimers(std::uint64_t Now) {
  // Collect due targets under the lock, resume them outside it: threadRun
  // and deliverTimeout walk thread/queue locks that must not nest inside
  // TimerLock.
  std::vector<Timer> Due;
  {
    std::lock_guard<std::mutex> Guard(TimerLock);
    while (!Timers.empty() && Timers.front().DeadlineNanos <= Now)
      Due.push_back(removeTimerAt(0));
  }
  for (const Timer &T : Due) {
    if (T.Owner)
      ThreadController::deliverTimeout(*T.Target, T.DeadlineNanos);
    else
      ThreadController::threadRun(*T.Target);
  }
}

void PreemptionClock::run() {
  while (!Stopping.load(std::memory_order_relaxed)) {
    const std::uint64_t Now = nowNanos();
    fireDueTimers(Now);
    if (Enabled.load(std::memory_order_relaxed))
      raisePreemptFlags(Now);

    std::uint64_t WaitNanos = TickNanos;
    {
      std::unique_lock<std::mutex> Lock(TimerLock);
      const std::uint64_t Later = nowNanos();
      if (!Timers.empty()) {
        std::uint64_t Next = Timers.front().DeadlineNanos;
        std::uint64_t UntilTimer = Next > Later ? Next - Later : 1;
        if (UntilTimer < WaitNanos)
          WaitNanos = UntilTimer;
      }
      if (Stopping.load(std::memory_order_relaxed))
        break;
      NextWakeNanos = Later + WaitNanos;
      TimerCv.wait_for(Lock, std::chrono::nanoseconds(WaitNanos));
    }
  }
}

//===----------------------------------------------------------------------===//
// WithoutPreemption
//===----------------------------------------------------------------------===//

WithoutPreemption::WithoutPreemption() {
  Tcb *C = currentTcb();
  STING_CHECK(C, "without-preemption outside a sting thread");
  C->disablePreemption();
}

WithoutPreemption::~WithoutPreemption() {
  Tcb *C = currentTcb();
  C->enablePreemption();
  if (!C->preemptionDisabled() && C->DeferredPreempt) {
    // Paper 4.2.2: a preemption deferred inside the scope "should not be
    // ignored" — honor it at the re-enable point.
    C->DeferredPreempt = false;
    ThreadController::yieldProcessor();
  }
}

WithoutInterrupts::WithoutInterrupts() {
  currentTcb()->disableInterrupts();
}

WithoutInterrupts::~WithoutInterrupts() {
  // Only re-enable: deferred requests include cross-thread raises, which
  // *throw* on delivery — and a destructor must not throw. They fire at
  // the thread's next controller call, matching the paper's "the change
  // itself takes place only when the target thread next makes a TC call".
  currentTcb()->enableInterrupts();
}

} // namespace sting
