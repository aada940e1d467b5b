//===- core/VirtualMachine.cpp - Virtual machines ---------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/VirtualMachine.h"

#include "core/Current.h"
#include "core/PhysicalProcessor.h"
#include "core/ThreadController.h"
#include "core/VirtualProcessor.h"
#include "core/Watchdog.h"
#include "gc/GlobalHeap.h"
#include "obs/Exposition.h"
#include "obs/TraceExporter.h"
#include "support/Chaos.h"

namespace sting {

static VmConfig sanitize(VmConfig Config) {
  if (Config.NumVps == 0)
    Config.NumVps = 1;
  if (Config.NumPps == 0)
    Config.NumPps = 1;
  if (Config.NumPps > Config.NumVps)
    Config.NumPps = Config.NumVps;
  if (Config.StackSize < 16 * 1024)
    Config.StackSize = 16 * 1024;
  if (!Config.Policy)
    Config.Policy = makeLocalFifoPolicy();
  if (!Config.PpPolicy)
    Config.PpPolicy = makeRoundRobinPhysicalPolicy();
  if (Config.DefaultQuantumNanos == 0)
    Config.DefaultQuantumNanos = 2'000'000;
  return Config;
}

VirtualMachine::VirtualMachine(VmConfig InConfig)
    : Config(sanitize(std::move(InConfig))),
      Topo(Config.Topology, Config.NumVps), RootGroup(ThreadGroup::create()) {
  chaos::initFromEnvOnce();
  for (unsigned I = 0; I != Config.NumVps; ++I)
    Vps.push_back(
        std::make_unique<VirtualProcessor>(*this, I, Config.Policy(*this, I)));

  for (unsigned I = 0; I != Config.NumPps; ++I)
    Pps.push_back(std::make_unique<PhysicalProcessor>(
        *this, I, Config.PpPolicy(*this, I)));

  // Assign VPs to physical processors round-robin.
  for (unsigned I = 0; I != Config.NumVps; ++I)
    Pps[I % Config.NumPps]->assignVp(*Vps[I]);

  Clock = std::make_unique<PreemptionClock>(*this, Config.PreemptTickNanos,
                                            Config.EnablePreemption);

  if (Config.StallBudgetNanos != 0)
    Dog = std::make_unique<Watchdog>(*this, Config.StallBudgetNanos,
                                     Config.StallPollNanos);

  if (Config.SamplerPeriodNanos != 0) {
    LoadSampler = std::make_unique<obs::Sampler>(
        Config.SamplerPeriodNanos, Config.SamplerCapacity, [this] {
          obs::LoadSample S;
          for (const auto &Vp : Vps) {
            std::uint64_t Ready = 0, Mailbox = 0;
            Vp->loadDepths(Ready, Mailbox);
            S.ReadyDepth += Ready;
            S.MailboxDepth += Mailbox;
            if (!Vp->isRunningThread() && Ready + Mailbox == 0)
              ++S.ParkedVps;
          }
          return S;
        });
    LoadSampler->start();
  }

  for (auto &Pp : Pps)
    Pp->start();
}

VirtualMachine::~VirtualMachine() {
  ShuttingDown.store(true, std::memory_order_release);
  if (LoadSampler)
    LoadSampler->stop(); // its probe walks Vps; stop before they go away
  if (Dog)
    Dog->stop(); // before VPs/PPs go away underneath its sampler
  IdleEc.notifyAll();
  Clock->stop();
  for (auto &Pp : Pps)
    Pp->stop();
  Pps.clear();
  Vps.clear(); // drains ready queues
  delete Heap.load(std::memory_order_relaxed);
}

VirtualProcessor &VirtualMachine::vp(unsigned Index) const {
  STING_CHECK(Index < Vps.size(), "VP index out of range");
  return *Vps[Index];
}

ThreadRef VirtualMachine::fork(Thread::Thunk Code, const SpawnOptions &Opts) {
  ThreadRef T = createThread(std::move(Code), Opts);
  ThreadController::threadRun(*T, Opts.Vp);
  return T;
}

ThreadRef VirtualMachine::createThread(Thread::Thunk Code,
                                       const SpawnOptions &Opts) {
  STING_CHECK(!Opts.Vp || &Opts.Vp->vm() == this,
              "SpawnOptions::Vp belongs to another machine");
  return Thread::create(*this, std::move(Code), Opts);
}

AnyValue VirtualMachine::run(Thread::Thunk Code, const SpawnOptions &Opts) {
  ThreadRef T = fork(std::move(Code), Opts);
  T->join();
  T->rethrowIfFailed();
  return T->takeResult();
}

std::uint64_t VirtualMachine::nextThreadId() {
  VirtualProcessor *Vp = currentVp();
  if (!Vp || Vp->Vm != this)
    return NextThreadId.fetch_add(1, std::memory_order_relaxed);
  if (Vp->NextId == Vp->IdLimit) {
    Vp->NextId = NextThreadId.fetch_add(ThreadIdBlock,
                                        std::memory_order_relaxed);
    Vp->IdLimit = Vp->NextId + ThreadIdBlock;
  }
  return Vp->NextId++;
}

obs::SchedStatsSnapshot VirtualMachine::aggregateStats() const {
  obs::SchedStatsSnapshot Total;
  for (const obs::SchedStatsSnapshot &S : perVpStats())
    Total += S;
  return Total;
}

std::vector<obs::SchedStatsSnapshot> VirtualMachine::perVpStats() const {
  std::vector<obs::SchedStatsSnapshot> Out;
  Out.reserve(Vps.size());
  for (const auto &Vp : Vps) {
    obs::SchedStatsSnapshot S = Vp->stats().snapshot();
    // The trace totals live in the ring, not the counter block; fold them
    // in here so truncated traces show up in every report and scrape.
    if (const obs::TraceBuffer *B = Vp->traceBuffer()) {
      S.TraceEvents = B->written();
      S.TraceDrops = B->dropped();
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

std::string VirtualMachine::statsReport() const {
  return obs::formatStatsReport(aggregateStats(), perVpStats());
}

std::string VirtualMachine::metricsText() const {
  return obs::formatPrometheus(aggregateStats(), perVpStats());
}

void VirtualMachine::setTracingEnabled(bool On) {
  for (const auto &Vp : Vps)
    if (obs::TraceBuffer *B = Vp->traceBuffer())
      B->setEnabled(On);
}

std::vector<obs::VpTraceSnapshot> VirtualMachine::snapshotTrace() const {
  std::vector<obs::VpTraceSnapshot> Out;
  for (const auto &Vp : Vps) {
    obs::TraceBuffer *B = Vp->traceBuffer();
    if (!B)
      continue;
    Out.push_back({B->vpId(), B->dropped(), B->snapshot()});
  }
  // The watchdog's pseudo-VP ring rides along so WatchdogReport events
  // show up in exports.
  if (Dog)
    if (obs::TraceBuffer *B = Dog->traceBuffer())
      Out.push_back({B->vpId(), B->dropped(), B->snapshot()});
  return Out;
}

bool VirtualMachine::writeChromeTrace(const std::string &Path,
                                      const std::string &ProcessName) const {
  std::vector<obs::VpTraceSnapshot> Snaps = snapshotTrace();
  if (Snaps.empty())
    return false;
  obs::TraceExporter Exporter;
  Exporter.addProcess(ProcessName, std::move(Snaps));
  if (LoadSampler)
    Exporter.addLoadSamples(LoadSampler->snapshot());
  return Exporter.writeFile(Path);
}

gc::GlobalHeap &VirtualMachine::globalHeap() {
  gc::GlobalHeap *H = Heap.load(std::memory_order_acquire);
  if (H)
    return *H;
  std::lock_guard<SpinLock> Guard(GlobalHeapLock);
  H = Heap.load(std::memory_order_relaxed);
  if (!H) {
    H = new gc::GlobalHeap();
    Heap.store(H, std::memory_order_release);
  }
  return *H;
}

} // namespace sting
