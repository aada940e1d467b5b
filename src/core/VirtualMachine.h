//===- core/VirtualMachine.h - First-class virtual machines -----*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A virtual machine (paper section 2): a collection of virtual processors
/// closed over an address space. "There may be many more virtual
/// processors than the actual physical processors available. ... Multiple
/// virtual machines can execute on a single physical machine." A VM's
/// public state includes the vector of its virtual processors, which
/// programs may enumerate for explicit thread placement.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_VIRTUALMACHINE_H
#define STING_CORE_VIRTUALMACHINE_H

#include "core/PhysicalPolicy.h"
#include "core/PolicyManager.h"
#include "core/PreemptionClock.h"
#include "core/Thread.h"
#include "core/ThreadGroup.h"
#include "core/Topology.h"
#include "obs/SchedStats.h"
#include "obs/Sampler.h"
#include "obs/TraceBuffer.h"
#include "support/EventCount.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sting {

class PhysicalProcessor;
class VirtualProcessor;
class Watchdog;
namespace gc {
class GlobalHeap;
} // namespace gc

/// Construction-time configuration of a virtual machine.
struct VmConfig {
  /// Virtual processors in the machine.
  unsigned NumVps = 2;
  /// Physical processors (OS threads) multiplexing the VPs.
  unsigned NumPps = 1;
  /// Usable bytes per thread stack.
  std::size_t StackSize = 128 * 1024;
  /// Default thread quantum.
  std::uint64_t DefaultQuantumNanos = 2'000'000; // 2 ms
  /// Start with quantum preemption on? (Toggleable at runtime.)
  bool EnablePreemption = false;
  /// Preemption-clock tick.
  std::uint64_t PreemptTickNanos = 1'000'000; // 1 ms
  /// Time slice of a VP on its physical processor: a VP with a non-empty
  /// queue yields the PP to sibling VPs this often (VPs are multiplexed on
  /// PPs "in the same way that threads are multiplexed on VPs").
  std::uint64_t VpSliceNanos = 1'000'000; // 1 ms
  /// Per-VP scheduling policy factory; default is local FIFO.
  PolicyFactory Policy;
  /// Per-PP policy multiplexing VPs onto physical processors; default is
  /// round-robin with idle probing (the paper's two-level scheduling:
  /// VP-on-PP scheduling is customizable like thread-on-VP scheduling).
  PhysicalPolicyFactory PpPolicy;
  /// VP interconnection for self-relative addressing.
  TopologyKind Topology = TopologyKind::Ring;
  /// Allocate per-VP trace rings and start with event tracing on. Only
  /// effective in builds with STING_TRACE; otherwise rings are never
  /// allocated and emission sites compile to nothing. Counters
  /// (SchedStats) are unconditional either way.
  bool EnableTracing = true;
  /// Entries per VP trace ring (rounded up to a power of two). Overflow
  /// overwrites the oldest events; see obs/TraceBuffer.h.
  std::size_t TraceCapacity = 1 << 14;
  /// Stall budget for the watchdog: a machine with no dispatch progress
  /// for this long is reported (see core/Watchdog.h). 0 (the default)
  /// disables the watchdog entirely — no monitor thread is created.
  std::uint64_t StallBudgetNanos = 0;
  /// Watchdog sampling period. Only meaningful with a non-zero budget.
  std::uint64_t StallPollNanos = 10'000'000; // 10 ms
  /// Background load-sampler period (obs/Sampler.h): every period the
  /// sampler thread records ready-queue depth, mailbox occupancy and the
  /// parked-VP count into a ring exported as Chrome counter events. 0
  /// (the default) disables the sampler — no thread is created.
  std::uint64_t SamplerPeriodNanos = 0;
  /// Entries in the sampler ring (rounded up to a power of two).
  /// Overflow overwrites the oldest samples.
  std::size_t SamplerCapacity = 4096;
};

/// A first-class virtual machine.
class VirtualMachine {
public:
  explicit VirtualMachine(VmConfig Config = VmConfig());
  ~VirtualMachine();

  VirtualMachine(const VirtualMachine &) = delete;
  VirtualMachine &operator=(const VirtualMachine &) = delete;

  const VmConfig &config() const { return Config; }

  // --- Processors --------------------------------------------------------

  /// The machine's VP vector — the paper's `(vm.vp-vector ...)`.
  const std::vector<std::unique_ptr<VirtualProcessor>> &vps() const {
    return Vps;
  }
  VirtualProcessor &vp(unsigned Index) const;
  unsigned numVps() const { return static_cast<unsigned>(Vps.size()); }

  const Topology &topology() const { return Topo; }

  // --- Thread creation (the paper's fork-thread / create-thread) ---------

  /// Creates and schedules a thread; usable from inside or outside the VM.
  ThreadRef fork(Thread::Thunk Code, const SpawnOptions &Opts = {});

  /// Creates a delayed thread: "a delayed thread will never be run unless
  /// the value of the thread is explicitly demanded."
  ThreadRef createThread(Thread::Thunk Code, const SpawnOptions &Opts = {});

  /// Convenience: fork \p Code, join from this (external) OS thread, and
  /// return the result. The usual way for main() to enter the machine.
  AnyValue run(Thread::Thunk Code, const SpawnOptions &Opts = {});

  // --- Machine services ---------------------------------------------------

  ThreadGroup &rootGroup() const { return *RootGroup; }
  PreemptionClock &clock() const { return *Clock; }

  /// The stall watchdog; null unless VmConfig::StallBudgetNanos was set.
  Watchdog *watchdog() const { return Dog.get(); }

  // --- Observability (see DESIGN.md "Observability") ----------------------

  /// Sums the per-VP SchedStats blocks, the machine's only counters
  /// (threads created, determined and stolen included). Counters are
  /// monotonic and read relaxed, so this is safe at any time; for exact
  /// balances (enqueues == dequeues) call it after the machine quiesces.
  obs::SchedStatsSnapshot aggregateStats() const;

  /// One snapshot per VP, in VP-index order.
  std::vector<obs::SchedStatsSnapshot> perVpStats() const;

  /// Plain-text table of aggregate plus per-VP counters.
  std::string statsReport() const;

  /// Prometheus text exposition of the same counters (plus run-slice and
  /// GC-pause summaries); what the net-layer metrics service serves.
  std::string metricsText() const;

  /// The background load sampler; null unless VmConfig::SamplerPeriodNanos
  /// was set.
  obs::Sampler *sampler() const { return LoadSampler.get(); }

  /// Toggles event emission on every VP's ring at runtime. No-op when the
  /// machine has no rings (STING_TRACE off or EnableTracing false).
  void setTracingEnabled(bool On);

  /// Captures every VP's trace ring. Empty when the machine has no rings.
  std::vector<obs::VpTraceSnapshot> snapshotTrace() const;

  /// Exports this machine's trace as Chrome trace_event JSON (one process
  /// named \p ProcessName, one track per VP). \returns false when there is
  /// nothing to export or the file cannot be written.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &ProcessName = "sting-vm") const;

  /// The machine's shared older generation (paper Fig. 1: "Shared older
  /// generation" in the VM address space). Created lazily.
  gc::GlobalHeap &globalHeap();

  /// Wakes idle physical processors; called after any enqueue. Cheap when
  /// nobody sleeps: the eventcount folds the waiter count into the epoch
  /// word, so this is one uncontended atomic load unless a PP is parked.
  void notifyWork() { IdleEc.notifyAll(); }

  bool isShuttingDown() const {
    return ShuttingDown.load(std::memory_order_acquire);
  }

  /// A fresh thread id, unique within this machine but not in creation
  /// order: a VP of this machine hands out ids from a block it reserved
  /// with one shared fetch_add (ThreadIdBlock), other callers take one id
  /// from the shared word.
  std::uint64_t nextThreadId();

  /// The idle-PP eventcount (DESIGN.md section 8): PPs with no runnable VP
  /// sleep here; notifyWork advances the epoch.
  EventCount &idleEventCount() { return IdleEc; }

private:
  friend class PhysicalProcessor;
  friend class VirtualProcessor;

  VmConfig Config;
  Topology Topo;
  std::vector<std::unique_ptr<VirtualProcessor>> Vps;
  std::vector<std::unique_ptr<PhysicalProcessor>> Pps;
  std::unique_ptr<PreemptionClock> Clock;
  std::unique_ptr<Watchdog> Dog;
  std::unique_ptr<obs::Sampler> LoadSampler;
  ThreadGroupRef RootGroup;

  SpinLock GlobalHeapLock;
  std::atomic<gc::GlobalHeap *> Heap{nullptr};

  EventCount IdleEc;
  std::atomic<bool> ShuttingDown{false};
  std::atomic<std::uint64_t> NextThreadId{1};
  /// Ids a VP reserves from NextThreadId at a time.
  static constexpr std::uint64_t ThreadIdBlock = 256;
};

} // namespace sting

#endif // STING_CORE_VIRTUALMACHINE_H
