//===- core/Watchdog.cpp - Stall watchdog over VP heartbeats -----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/Watchdog.h"

#include "core/PreemptionClock.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "support/Clock.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace sting {

Watchdog::Watchdog(VirtualMachine &Vm, std::uint64_t BudgetNanos,
                   std::uint64_t PollNanos)
    : Vm(Vm), Detector(BudgetNanos), PollNanos(PollNanos) {
#ifdef STING_TRACE
  if (Vm.config().EnableTracing)
    Ring = std::make_unique<obs::TraceBuffer>(
        /*VpId=*/Vm.numVps(), /*Capacity=*/256);
  if (Ring)
    Ring->setEnabled(true);
#endif
  Monitor = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  {
    std::lock_guard<std::mutex> Guard(Mu);
    if (Stop)
      return;
    Stop = true;
  }
  Cv.notify_all();
  if (Monitor.joinable())
    Monitor.join();
}

void Watchdog::addDiagnostic(std::string Name,
                             std::function<std::string()> Fn) {
  std::lock_guard<std::mutex> Guard(Mu);
  Diagnostics.emplace_back(std::move(Name), std::move(Fn));
}

std::string Watchdog::lastReport() const {
  std::lock_guard<std::mutex> Guard(Mu);
  return Last;
}

void Watchdog::setReportHook(std::function<void(const std::string &)> Hook) {
  std::lock_guard<std::mutex> Guard(Mu);
  this->Hook = std::move(Hook);
}

obs::MachineSample Watchdog::sample() const {
  obs::MachineSample S;
  S.NowNanos = nowNanos();
  std::uint64_t Created = 0, Determined = 0;
  S.PendingTimers = Vm.clock().pendingTimers();
  S.Vps.reserve(Vm.numVps());
  for (const auto &Vp : Vm.vps()) {
    obs::VpSample V;
    const obs::SchedStats &St = Vp->stats();
    Created += St.ThreadsCreated;
    Determined += St.ThreadsTerminated;
    // Any context switch moves this sum; a frozen value means no thread
    // ran, yielded, parked or exited on this VP. IdleCalls is deliberately
    // excluded: the PP idle loop keeps polling (and incrementing it) even
    // in a total deadlock, which would mask MachineBlocked forever.
    V.Progress = St.Dispatches.get() + St.Yields.get() + St.Parks.get() +
                 St.Exits.get();
    V.HasReadyWork = Vp->hasReadyWork();
    V.RunningThread = Vp->isRunningThread();
    S.Vps.push_back(V);
  }
  S.LiveThreads = Created > Determined ? Created - Determined : 0;
  return S;
}

std::string Watchdog::buildReport(obs::StallVerdict Verdict,
                                  const obs::MachineSample &S) const {
  std::ostringstream Os;
  Os << "=== sting watchdog report ===\n"
     << "verdict: " << obs::stallVerdictName(Verdict)
     << " (budget " << Detector.budgetNanos() << " ns)\n"
     << "live threads: " << S.LiveThreads
     << "  pending timers: " << S.PendingTimers << "\n";

  const auto &Stalled = Detector.stalledVps();
  auto IsStalled = [&](unsigned I) {
    for (unsigned V : Stalled)
      if (V == I)
        return true;
    return false;
  };

  std::vector<obs::SchedStatsSnapshot> PerVp = Vm.perVpStats();
  for (std::size_t I = 0; I != S.Vps.size(); ++I) {
    const obs::VpSample &V = S.Vps[I];
    Os << "vp " << I << (IsStalled(static_cast<unsigned>(I)) ? " [STALLED]"
                                                             : "")
       << ": progress=" << V.Progress
       << " stall-age=" << Detector.stallAgeNanos(static_cast<unsigned>(I))
       << "ns ready-work=" << (V.HasReadyWork ? "yes" : "no")
       << " running=" << (V.RunningThread ? "yes" : "no");
    if (I < PerVp.size())
      Os << " parks=" << PerVp[I].Parks << " wakeups=" << PerVp[I].Wakeups
         << " blocks=" << PerVp[I].Blocks;
    Os << "\n";
  }

  {
    std::lock_guard<std::mutex> Guard(Mu);
    for (const auto &[Name, Fn] : Diagnostics)
      Os << "diagnostic " << Name << ": " << Fn() << "\n";
  }

  // Trace-ring tails: the last few events per VP tell us what each one
  // was doing when it stopped.
  for (const obs::VpTraceSnapshot &Snap : Vm.snapshotTrace()) {
    constexpr std::size_t Tail = 8;
    std::size_t Begin =
        Snap.Events.size() > Tail ? Snap.Events.size() - Tail : 0;
    Os << "trace vp " << Snap.VpId << " tail:";
    for (std::size_t I = Begin; I != Snap.Events.size(); ++I) {
      const obs::TraceEvent &E = Snap.Events[I];
      Os << " " << obs::traceEventKindName(E.kind()) << "(t" << E.ThreadId
         << "," << E.Payload << ")";
    }
    Os << "\n";
  }
  Os << "=== end watchdog report ===\n";
  return Os.str();
}

void Watchdog::emitReport(const std::string &Report) {
  Reports.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> Guard(Mu);
    Last = Report;
  }
  STING_TRACE_EVENT(WatchdogReport, 0,
                    static_cast<std::uint32_t>(reportsEmitted()));
  std::fputs(Report.c_str(), stderr);
  if (const char *Path = std::getenv("STING_WATCHDOG_REPORT")) {
    if (std::FILE *F = std::fopen(Path, "a")) {
      std::fputs(Report.c_str(), F);
      std::fclose(F);
    }
  }
  std::function<void(const std::string &)> H;
  {
    std::lock_guard<std::mutex> Guard(Mu);
    H = Hook;
  }
  if (H)
    H(Report);
}

void Watchdog::loop() {
  // The watchdog thread owns its pseudo-VP ring: installing it as this OS
  // thread's sink keeps the single-writer discipline.
  obs::setThreadTraceBuffer(Ring.get());
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait_for(Lock, std::chrono::nanoseconds(PollNanos),
                  [this] { return Stop; });
      if (Stop)
        break;
    }
    obs::MachineSample S = sample();
    obs::StallVerdict Verdict = Detector.observe(S);
    if (Verdict != obs::StallVerdict::Healthy)
      emitReport(buildReport(Verdict, S));
  }
  obs::setThreadTraceBuffer(nullptr);
}

} // namespace sting
