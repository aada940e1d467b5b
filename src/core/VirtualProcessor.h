//===- core/VirtualProcessor.h - First-class virtual processors -*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A virtual processor (paper section 3.2): an abstraction of a physical
/// computing device, closed over (1) a thread controller implementing the
/// thread state-transition function and (2) a policy manager implementing
/// scheduling and migration. VPs are first-class: they can be enumerated
/// (vm.vps()), passed to fork for explicit placement, and addressed
/// relative to the current VP through the machine topology.
///
/// Each VP runs its scheduler loop on its own execution context, so VPs are
/// multiplexed on physical processors exactly the way threads are
/// multiplexed on VPs.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_VIRTUALPROCESSOR_H
#define STING_CORE_VIRTUALPROCESSOR_H

#include "arch/Context.h"
#include "arch/Stack.h"
#include "core/PolicyManager.h"
#include "core/Tcb.h"
#include "obs/SchedStats.h"
#include "obs/TraceBuffer.h"

#include <atomic>
#include <cstdint>
#include <memory>

namespace sting {

class PhysicalProcessor;
class VirtualMachine;

/// Why the scheduler context was re-entered from a thread; tells the
/// scheduler how to dispose of the TCB that just switched out.
enum class SchedAction : std::uint8_t {
  None,
  /// Re-enqueue the TCB (yield / preemption); operand: EnqueueReason.
  Yield,
  /// Complete the park protocol (block / suspend).
  Park,
  /// The thread determined; unbind and recycle the TCB.
  Exit,
};

/// Per-VP counters surfaced to tests, the monitor and the benchmark
/// harness. Now the obs-layer counter block; field names are unchanged so
/// existing `vp.stats().Yields`-style reads keep working (Counter converts
/// to uint64_t implicitly).
using VpStats = obs::SchedStats;

/// A first-class virtual processor.
class VirtualProcessor {
public:
  VirtualProcessor(VirtualMachine &Vm, unsigned Index,
                   std::unique_ptr<PolicyManager> Policy);
  ~VirtualProcessor();

  VirtualProcessor(const VirtualProcessor &) = delete;
  VirtualProcessor &operator=(const VirtualProcessor &) = delete;

  VirtualMachine &vm() const { return *Vm; }
  unsigned index() const { return Index; }

  /// The policy manager this VP is closed over.
  PolicyManager &policy() { return *Policy; }

  /// The physical processor currently executing this VP (null if none).
  PhysicalProcessor *physicalProcessor() const { return Pp; }

  const obs::SchedStats &stats() const { return Stats; }

  /// Mutable counter access for the substrate and custom policy managers
  /// (counters are monotonic telemetry; non-owner writers must use
  /// Counter::incShared, see obs/SchedStats.h).
  obs::SchedStats &stats() { return Stats; }

  /// This VP's event ring; null unless the machine was configured with
  /// tracing and the build has STING_TRACE.
  obs::TraceBuffer *traceBuffer() const { return Trace.get(); }

  /// Enqueues \p Item on this VP via its policy manager and wakes idle
  /// physical processors. Takes over the caller's Thread reference.
  void enqueue(Schedulable &Item, EnqueueReason Reason);

  /// True if this VP's policy reports ready work.
  bool hasReadyWork() const { return Policy->hasReadyWork(*this); }

  /// Occupancy probe for the load sampler; forwards to the policy.
  void loadDepths(std::uint64_t &ReadyDepth,
                  std::uint64_t &MailboxDepth) const {
    Policy->loadDepths(*this, ReadyDepth, MailboxDepth);
  }

  /// True while a thread is dispatched on this VP (readable from any
  /// thread; the watchdog's heartbeat sampler uses it).
  bool isRunningThread() const {
    return Running.load(std::memory_order_relaxed) != nullptr;
  }

  // --- Topology-relative addressing (paper section 3.2) -----------------

  VirtualProcessor &leftVp() const;
  VirtualProcessor &rightVp() const;
  VirtualProcessor &upVp() const;
  VirtualProcessor &downVp() const;

private:
  friend class PhysicalProcessor;
  friend class Thread;
  friend class ThreadController;
  friend class VirtualMachine;

  /// Body of the scheduler loop; runs on SchedCtx.
  void schedulerLoop();
  static void schedulerEntry(void *Arg);

  /// Context entry for freshly bound TCBs.
  static void tcbEntry(void *Arg);

  /// Dispatches one ready item, dropping the stale entries (threads stolen
  /// or terminated while queued) ahead of it; \returns false if there was
  /// nothing to run (after consulting pm-vp-idle).
  bool dispatchOne();

  /// Binds \p T (already CAS'd to Evaluating) to a TCB and runs it.
  void runFresh(Thread &T);

  /// Resumes a parked/yielded TCB.
  void resume(Tcb &C);

  /// Switches from the scheduler context into \p C and, after control
  /// returns, performs the action the thread requested on its way out.
  void switchInto(Tcb &C);

  /// Allocates a TCB + stack from the caches (or fresh).
  Tcb &acquireTcb();

  /// Recycles \p C after its thread exited.
  void recycleTcb(Tcb &C);

  /// Pops a cached Thread block, or \returns null (Thread::operator new).
  void *takeThreadStorage();

  /// Caches the freed Thread block \p P; \returns false when the cache is
  /// full and the caller must free it (Thread::operator delete).
  bool keepThreadStorage(void *P);

  // Read-mostly line: every enqueue onto this VP, remote ones included,
  // loads Policy, so nothing the owner writes per switch lives here.
  VirtualMachine *Vm;
  unsigned Index;
  std::unique_ptr<PolicyManager> Policy;
  /// Set when a physical processor first runs this VP (pinned for life).
  PhysicalProcessor *Pp = nullptr;

public:
  // --- Preemption interface used by the machine clock -------------------
  // The first owner-written line (with SchedCtx, Running and Action).

  /// Absolute deadline (ns) of the running thread's slice; 0 while idle.
  alignas(64) std::atomic<std::uint64_t> SliceDeadline{0};
  /// Raised by the clock when the slice expires; consumed at checkpoints.
  std::atomic<bool> PreemptFlag{false};

private:
  Context SchedCtx;
  Stack *SchedStack = nullptr;
  bool SchedStarted = false;

  /// The TCB currently running on this VP (null while in the scheduler).
  /// Atomic only so off-VP observers (the watchdog) read it untorn; the
  /// owning VP uses relaxed plain-store semantics.
  std::atomic<Tcb *> Running{nullptr};

  /// Action requested by the thread that last switched back to SchedCtx.
  SchedAction Action = SchedAction::None;
  EnqueueReason ActionReason = EnqueueReason::Yielded;
  Tcb *ActionTcb = nullptr;

  /// True between a fruitless dispatch (nothing runnable anywhere) and the
  /// next successful one; drives the VpParks/VpUnparks counters and the
  /// park/unpark trace events. VPs are born parked: a VP that has never
  /// dispatched is idle by definition, so startup emits no event (a trace
  /// gated off right after construction must stay empty). Owner-only, so
  /// a plain bool.
  bool IdleParked = true;

  /// Dispatches remaining before this VP yields to its physical processor
  /// so sibling VPs get processor time (backstop for the time slice).
  int DispatchBudget = 0;
  /// Absolute end of this VP's current slice on its physical processor.
  std::uint64_t PpSliceDeadline = 0;

  StackPool Stacks;
  IntrusiveList<Tcb, TcbCacheTag> TcbCache;
  std::size_t CachedTcbs = 0;

  /// Freed Thread blocks this VP's forks reuse, capped like the TCB
  /// cache. In ASan builds a cached block stays poisoned until reuse, and
  /// only the oldest block of a full cache is reused.
  static constexpr std::size_t MaxCachedThreads = 64;
  void *ThreadBlocks[MaxCachedThreads];
  std::size_t CachedThreads = 0;

  /// This VP's reserved block of thread ids, [NextId, IdLimit); refilled
  /// by VirtualMachine::nextThreadId. Owner-only.
  std::uint64_t NextId = 0;
  std::uint64_t IdLimit = 0;

  obs::SchedStats Stats;
  std::unique_ptr<obs::TraceBuffer> Trace;
};

} // namespace sting

#endif // STING_CORE_VIRTUALPROCESSOR_H
