//===- core/Thread.h - First-class lightweight threads ----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central abstraction (section 3.1): a thread is a first-class
/// non-strict data structure encapsulating a thunk, state information,
/// genealogy and a chain of waiters. Threads may be passed around, stored
/// in data structures (including tuples), and outlive their creators. A
/// thread dropped before it determined is counted terminated on its
/// machine, so such a thread must not outlive the machine.
///
/// The state machine is exactly the paper's:
///
///   Delayed ──(threadRun / steal)──► Scheduled ──► Evaluating ──► Determined
///      │                                 │
///      └───────────(steal)──────────► Stolen ───────────────────► Determined
///
/// Evaluating threads have a dynamic context (a Tcb) with sub-states
/// (running, blocked, suspended) managed by the thread controller. Only a
/// thread effects its own transitions out of Evaluating; other threads
/// merely *request* transitions, which are applied at the target's next
/// thread-controller call (paper section 3.1, final paragraph).
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_THREAD_H
#define STING_CORE_THREAD_H

#include "core/Schedulable.h"
#include "support/AnyValue.h"
#include "support/Deadline.h"
#include "support/IntrusivePtr.h"
#include "support/SpinLock.h"
#include "support/UniqueFunction.h"

#include <atomic>
#include <cstdint>
#include <memory>

namespace sting {

class Tcb;
class ThreadGroup;
class VirtualMachine;
class VirtualProcessor;

namespace detail {
struct FluidNode;
} // namespace detail

/// Hook tag for membership in a ThreadGroup's member list.
struct GroupMemberTag;

/// The paper's thread states (section 3.1).
enum class ThreadState : std::uint8_t {
  /// Created by createThread; will never run unless demanded or scheduled.
  Delayed,
  /// Known to a VP's policy manager; not yet running, has no TCB.
  Scheduled,
  /// Running (or blocked / suspended) with a TCB.
  Evaluating,
  /// Its thunk is being evaluated inline on another thread's TCB (4.1.1).
  Stolen,
  /// The thunk's value has been stored in the thread.
  Determined,
};

/// \returns a printable name for \p S.
const char *threadStateName(ThreadState S);

class Thread;
using ThreadRef = IntrusivePtr<Thread>;

/// A waiter record — the paper's *thread barrier* (TB, Fig. 5). Lives on
/// the waiting thread's stack (or in an external joiner's frame), chained
/// from the target thread's waiter list under the target's waiter lock.
struct ThreadBarrier {
  enum class WaiterKind : std::uint8_t {
    TcbWaiter,      ///< A sting thread parked in blockOnGroup.
    ExternalWaiter, ///< An OS thread in Thread::join (outside the VM).
  };

  ThreadBarrier *Next = nullptr;
  WaiterKind Kind = WaiterKind::TcbWaiter;
  Tcb *WaiterTcb = nullptr;       ///< valid for TcbWaiter
  void *ExternalSignal = nullptr; ///< valid for ExternalWaiter
  Thread *Target = nullptr;       ///< for debugging, as in the paper
};

/// Options supplied when creating a thread.
struct SpawnOptions {
  /// Explicit placement; null lets the creator's policy manager choose
  /// (the paper's first load-balancing decision point, section 3.3).
  VirtualProcessor *Vp = nullptr;
  /// Scheduling priority hint (pm-priority); larger is more urgent.
  int Priority = 0;
  /// Quantum hint in nanoseconds (pm-quantum); 0 means the VM default.
  std::uint64_t QuantumNanos = 0;
  /// May this thread's thunk be evaluated on a toucher's TCB? (4.1.1:
  /// "users can parametrize thread state to inform the TC if a thread can
  /// steal or not".)
  bool Stealable = true;
  /// Group to join; null inherits the creator's group.
  ThreadGroup *Group = nullptr;
  /// Skip genealogy bookkeeping (the paper's cheapest creation path, used
  /// for the Fig. 6 "Thread Creation" row).
  bool NoGenealogy = false;
};

/// A first-class lightweight thread of control.
class Thread final : public Schedulable, public RefCounted<Thread>,
                     public ListNode<GroupMemberTag> {
public:
  using Thunk = UniqueFunction<AnyValue()>;

  /// Creates a thread in the Delayed state. Does not schedule it. The
  /// normal entry points are VirtualMachine::fork / createThread and the
  /// sting:: free functions; this is the underlying factory.
  static ThreadRef create(VirtualMachine &Vm, Thunk Code,
                          const SpawnOptions &Opts = {});

  ThreadState state() const { return State.load(std::memory_order_acquire); }
  bool isDetermined() const { return state() == ThreadState::Determined; }

  /// \returns the determined value. Must only be called once the thread is
  /// determined (threadValue / wait handle the synchronization).
  const AnyValue &result() const;

  /// Blocks the *calling OS thread* until this thread is determined. For
  /// use from outside the virtual machine (e.g. main). Inside a sting
  /// thread, use sting::threadWait, which blocks via the thread controller.
  void join();

  /// Timed join. \returns true once determined, false if \p D expired
  /// first; a timed-out joiner retracts its waiter record before
  /// returning. Same calling rules as join().
  bool joinFor(Deadline D);

  /// True if the thread is evaluating and currently parked by
  /// thread-block / thread-suspend (i.e. resumable by threadRun). Racy by
  /// nature; intended for monitoring and tests.
  bool isUserBlocked() const;

  /// Typed convenience over result().
  template <typename T> const T &valueAs() const { return result().as<T>(); }

  /// Moves the determined value out of the thread (single consumer).
  AnyValue takeResult() {
    STING_CHECK(isDetermined(), "takeResult() on an undetermined thread");
    return std::move(Result);
  }

  // --- Attributes -------------------------------------------------------

  std::uint64_t id() const { return Id; }
  VirtualMachine &vm() const { return *Vm; }

  /// The causal flow this thread works on behalf of (obs/Flow.h).
  /// Inherited from the creator at fork; re-adopted from the waker on
  /// unpark edges and from tuple depositors on match, so one request keeps
  /// a single id across its whole cross-VP journey. Relaxed atomics: the
  /// id is telemetry, never a synchronization channel.
  std::uint64_t flowId() const {
    return Flow.load(std::memory_order_relaxed);
  }
  void setFlowId(std::uint64_t F) {
    Flow.store(F, std::memory_order_relaxed);
  }

  int priority() const { return Priority.load(std::memory_order_relaxed); }
  void setPriority(int P) { Priority.store(P, std::memory_order_relaxed); }

  std::uint64_t quantumNanos() const { return QuantumNanos; }
  void setQuantumNanos(std::uint64_t Q) { QuantumNanos = Q; }

  bool isStealable() const {
    return Stealable.load(std::memory_order_relaxed);
  }
  void setStealable(bool S) {
    Stealable.store(S, std::memory_order_relaxed);
  }

  /// True if the thread was determined by a terminate request rather than
  /// by its thunk returning.
  bool wasTerminated() const {
    return Terminated.load(std::memory_order_relaxed);
  }

  /// True if the thunk exited with an uncaught exception; the result then
  /// holds the std::exception_ptr (the paper's cross-thread exception
  /// propagation: exceptions surface to whoever demands the value).
  bool failed() const { return Failed.load(std::memory_order_relaxed); }

  /// Rethrows the captured exception if the thread failed; otherwise a
  /// no-op. Called by threadValue on behalf of consumers.
  void rethrowIfFailed() const;

  // --- Genealogy (section 3.1: parent/siblings/children for debugging and
  // profiling; children are enumerated through the thread's group). -------

  /// The creating thread's id, or 0 for roots / NoGenealogy threads. An
  /// id, not a reference: a parent whose result holds its children must
  /// not be kept alive by them.
  std::uint64_t parentId() const { return ParentId; }

  /// The thread's group (never null once created normally). The machine
  /// owns its root group and its members hold no reference to it, so a
  /// thread that outlives its machine may not read its group, just as it
  /// may not touch vm().
  ThreadGroup *group() const { return Group; }

  /// The thread's dynamic environment (paper section 3.1: fluid bindings).
  /// Captured from the creator at fork; mutated only by the owning thread
  /// through Fluid<T>::Scope.
  std::shared_ptr<detail::FluidNode> FluidEnv;

private:
  friend class RefCounted<Thread>;
  friend class Schedulable;
  friend class Tcb;
  friend class ThreadController;
  friend class VirtualProcessor;
  friend class ThreadGroup;

  Thread(VirtualMachine &Vm, Thunk Code, const SpawnOptions &Opts);
  ~Thread();

  /// Thread storage comes from the calling VP's cache, like TCBs, so a
  /// thread created, stolen and dropped on one VP costs no allocator call;
  /// callers off a VP use the global allocator.
  static void *operator new(std::size_t Size);
  static void operator delete(void *P);

  /// Attempts the CAS \p From -> \p To on the state word.
  bool tryTransition(ThreadState From, ThreadState To) {
    return State.compare_exchange_strong(From, To,
                                         std::memory_order_acq_rel);
  }

  /// Stores \p Value, marks the thread Determined, counts the
  /// determination, wakes all waiters and leaves the group. \p ViaTerminate
  /// distinguishes thread-terminate. Called exactly once, by the thread
  /// controller or an external joiner's steal.
  void determine(AnyValue Value, bool ViaTerminate);

  /// Adds \p TB to the waiter chain unless already determined.
  /// \returns false if the thread was already determined (no registration).
  bool addWaiter(ThreadBarrier &TB);

  /// Removes \p TB from the waiter chain if still present. \returns true
  /// if it was found (i.e. the waiter still "owed" a wakeup).
  bool removeWaiter(ThreadBarrier &TB);

  std::atomic<ThreadState> State{ThreadState::Delayed};
  std::atomic<bool> Stealable{true};
  std::atomic<bool> Terminated{false};
  std::atomic<bool> Failed{false};
  /// thread-suspend arrived while the thread was still delayed/scheduled;
  /// honored immediately after the thread is bound to a TCB.
  std::atomic<bool> SuspendOnStart{false};
  /// The shard of Group's member list this thread sits on (set by
  /// ThreadGroup::addMember, read by removeMember).
  std::uint8_t GroupShard = 0;
  /// True when this thread holds a reference on Group: every group but
  /// its machine's root group, which the machine keeps alive itself.
  bool HoldsGroupRef = false;
  std::uint64_t SuspendOnStartQuantum = 0;
  std::atomic<int> Priority{0};
  std::atomic<std::uint64_t> Flow{0};
  std::uint64_t QuantumNanos = 0;
  std::uint64_t Id;

  VirtualMachine *Vm;
  Thunk Code;
  AnyValue Result;

  /// Guards the waiter chain and the determined-vs-register race (the
  /// paper's per-thread mutex, Fig. 5).
  SpinLock WaiterLock;
  ThreadBarrier *Waiters = nullptr;

  /// The TCB currently evaluating this thread, published under WaiterLock
  /// so requesters (threadRun, threadTerminate, suspend timers) can reach
  /// the dynamic context race-free. Cleared by determine().
  Tcb *OwnedTcb = nullptr;

  ThreadGroup *Group = nullptr;
  std::uint64_t ParentId = 0;
};

} // namespace sting

#endif // STING_CORE_THREAD_H
