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

#include <algorithm>
#include <chrono>

namespace sting {

PreemptionClock::PreemptionClock(VirtualMachine &Vm, std::uint64_t TickNanos,
                                 bool PreemptionEnabled)
    : Vm(&Vm), TickNanos(TickNanos ? TickNanos : 1'000'000),
      Enabled(PreemptionEnabled),
      NumHeaps(Vm.vps().size()),
      Heaps(std::make_unique<TimerHeap[]>(NumHeaps)) {
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
  {
    std::lock_guard<std::mutex> Guard(TimerLock);
    Kicked = true;
  }
  TimerCv.notify_all();
}

//===----------------------------------------------------------------------===//
// Per-VP timer heaps
//===----------------------------------------------------------------------===//

void PreemptionClock::TimerHeap::place(std::size_t I, Timer T) {
  if (T.Owner)
    T.Owner->TimeoutIndex.store(I, std::memory_order_relaxed);
  Timers[I] = std::move(T);
}

void PreemptionClock::TimerHeap::siftUp(std::size_t I) {
  Timer T = std::move(Timers[I]);
  while (I != 0) {
    std::size_t Parent = (I - 1) / 2;
    if (Timers[Parent].DeadlineNanos <= T.DeadlineNanos)
      break;
    place(I, std::move(Timers[Parent]));
    I = Parent;
  }
  place(I, std::move(T));
}

void PreemptionClock::TimerHeap::siftDown(std::size_t I) {
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
    place(I, std::move(Timers[Child]));
    I = Child;
  }
  place(I, std::move(T));
}

PreemptionClock::Timer PreemptionClock::TimerHeap::removeAt(std::size_t I) {
  Timer Removed = std::move(Timers[I]);
  // Release: pairs with cancelTimeout's lock-free acquire check, so a
  // recycling owner that sees NoTimeout also sees whatever the clock did
  // with the TCB before removing its timer (fireDueTimers' retain).
  if (Removed.Owner)
    Removed.Owner->TimeoutIndex.store(Tcb::NoTimeout,
                                      std::memory_order_release);
  Timer Last = std::move(Timers.back());
  Timers.pop_back();
  if (I != Timers.size()) {
    Timers[I] = std::move(Last);
    siftUp(I);
    siftDown(I);
  }
  return Removed;
}

void PreemptionClock::TimerHeap::push(Timer T) {
  Timers.push_back(std::move(T));
  siftUp(Timers.size() - 1);
}

void PreemptionClock::TimerHeap::publish() {
  Earliest.store(Timers.empty() ? NoDeadline : Timers.front().DeadlineNanos,
                 std::memory_order_seq_cst);
}

void PreemptionClock::arm(std::size_t HeapIndex, Timer T) {
  const std::uint64_t DeadlineNanos = T.DeadlineNanos;
  {
    TimerHeap &H = Heaps[HeapIndex];
    std::lock_guard<SpinLock> Guard(H.Lock);
    if (T.Owner)
      T.Owner->TimeoutHeap = HeapIndex;
    H.push(std::move(T));
    H.publish();
  }
  // The heap's Earliest store precedes this load (both seq_cst). Seeing
  // Scanning, the clock has yet to publish its next plan, and it re-reads
  // every heap after publishing (run()), so it finds this timer; seeing
  // a plan, only a deadline before it needs a kick.
  if (DeadlineNanos >= NextWakeNanos.load(std::memory_order_seq_cst))
    return;
  {
    std::lock_guard<std::mutex> Guard(TimerLock);
    Kicked = true;
  }
  TimerCv.notify_one();
}

void PreemptionClock::scheduleResume(ThreadRef T, std::uint64_t DelayNanos) {
  VirtualProcessor *Vp = currentVp();
  arm(Vp && &Vp->vm() == Vm ? Vp->index() : 0,
      Timer{nowNanos() + DelayNanos, std::move(T)});
}

void PreemptionClock::scheduleTimeout(Tcb &C, std::uint64_t DeadlineNanos) {
  cancelTimeout(C);
  // No thread reference: while the timer is in a heap the TCB cannot be
  // recycled (recycleTcb cancels it first), so C.Current keeps the thread
  // alive until fireDueTimers retains it.
  arm(C.vp()->index(), Timer{DeadlineNanos, ThreadRef(), &C});
}

void PreemptionClock::cancelTimeout(Tcb &C) {
  // Only the owner arms, so a NoTimeout read here cannot be overtaken by
  // a concurrent arm, and TimeoutHeap is the owner's own last write; any
  // other index is re-checked under that heap's lock (the clock may have
  // fired the timer since).
  if (C.TimeoutIndex.load(std::memory_order_acquire) == Tcb::NoTimeout)
    return;
  TimerHeap &H = Heaps[C.TimeoutHeap];
  std::lock_guard<SpinLock> Guard(H.Lock);
  if (std::size_t I = C.TimeoutIndex.load(std::memory_order_relaxed);
      I != Tcb::NoTimeout) {
    H.removeAt(I); // an armed park timer holds no reference to drop
    H.publish();
  }
}

std::uint64_t PreemptionClock::earliestDeadline() const {
  std::uint64_t Next = NoDeadline;
  for (std::size_t I = 0; I != NumHeaps; ++I)
    Next = std::min(Next, Heaps[I].Earliest.load(std::memory_order_seq_cst));
  return Next;
}

std::size_t PreemptionClock::pendingTimers() const {
  std::size_t N = 0;
  for (std::size_t I = 0; I != NumHeaps; ++I) {
    std::lock_guard<SpinLock> Guard(Heaps[I].Lock);
    N += Heaps[I].Timers.size();
  }
  return N;
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
  // Collect due targets under each heap's lock, resume them outside it:
  // threadRun and deliverTimeout walk thread/queue locks that must not
  // nest inside a heap lock. Heaps with nothing due are not locked.
  std::vector<Timer> Due;
  for (std::size_t I = 0; I != NumHeaps; ++I) {
    TimerHeap &H = Heaps[I];
    if (H.Earliest.load(std::memory_order_seq_cst) > Now)
      continue;
    std::lock_guard<SpinLock> Guard(H.Lock);
    while (!H.Timers.empty() && H.Timers.front().DeadlineNanos <= Now) {
      // A park timer holds no reference; take one while the timer still
      // pins the TCB's binding, before removeAt releases it.
      if (Timer &Front = H.Timers.front(); Front.Owner)
        Front.Target = ThreadRef(Front.Owner->thread());
      Due.push_back(H.removeAt(0));
    }
    H.publish();
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
    // Arms stop kicking while the heaps are scanned (see arm()).
    NextWakeNanos.store(Scanning, std::memory_order_seq_cst);
    const std::uint64_t Now = nowNanos();
    fireDueTimers(Now);
    if (Enabled.load(std::memory_order_relaxed))
      raisePreemptFlags(Now);

    std::unique_lock<std::mutex> Lock(TimerLock);
    if (Stopping.load(std::memory_order_relaxed))
      break;
    if (!Kicked) {
      const std::uint64_t Later = nowNanos();
      std::uint64_t Wake = Later + TickNanos;
      NextWakeNanos.store(Wake, std::memory_order_seq_cst);
      // Read the heaps only after publishing the plan: an arm that saw
      // Scanning did not kick, but it published its timer first.
      if (std::uint64_t Next = earliestDeadline(); Next < Wake) {
        Wake = std::max(Next, Later + 1);
        NextWakeNanos.store(Wake, std::memory_order_seq_cst);
      }
      TimerCv.wait_for(Lock, std::chrono::nanoseconds(Wake - Later), [this] {
        return Kicked || Stopping.load(std::memory_order_relaxed);
      });
    }
    Kicked = false;
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
