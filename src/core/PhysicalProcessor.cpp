//===- core/PhysicalProcessor.cpp - Physical processors --------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/PhysicalProcessor.h"

#include "core/Current.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"

namespace sting {

namespace {
/// How long an idle PP naps before re-polling (it is also woken eagerly by
/// notifyWork on any enqueue).
constexpr std::uint64_t IdleNapNanos = 1'000'000; // 1 ms
} // namespace

PhysicalProcessor::PhysicalProcessor(VirtualMachine &Vm, unsigned Index,
                                     std::unique_ptr<PhysicalPolicy> Policy)
    : Vm(&Vm), Index(Index), Policy(std::move(Policy)) {
  STING_CHECK(this->Policy, "physical processor needs a policy");
}

PhysicalProcessor::~PhysicalProcessor() {
  STING_DCHECK(!Os.joinable(), "physical processor destroyed while running");
}

void PhysicalProcessor::assignVp(VirtualProcessor &Vp) {
  Vps.push_back(&Vp);
}

void PhysicalProcessor::start() {
  Os = std::thread([this] { run(); });
}

void PhysicalProcessor::stop() {
  if (Os.joinable())
    Os.join();
}

void PhysicalProcessor::run() {
  currentCursor().Pp = this;

  EventCount &Idle = Vm->idleEventCount();
  while (!Vm->isShuttingDown()) {
    VirtualProcessor *Vp = Policy->nextVp(*this);
    if (!Vp) {
      // Sleep until an enqueue notifies, with a nap cap as a safety net.
      // The eventcount handshake: register as a waiter, re-check every
      // VP's queues, and only then sleep — an enqueue that lands between
      // the re-check and the sleep sees the waiter registration and bumps
      // the epoch, so the commit returns immediately (no lost wakeups).
      EventCount::Key K = Idle.prepareWait();
      bool Work = false;
      for (VirtualProcessor *Candidate : Vps)
        Work |= Candidate->hasReadyWork();
      if (Work || Vm->isShuttingDown())
        Idle.cancelWait();
      else
        Idle.commitWait(K, IdleNapNanos);
      Policy->workPublished(*this);
      continue;
    }

    ++Switches;
    if (Vp->Pp != this) // a VP is pinned to one PP: keep its line clean
      Vp->Pp = this;
    currentCursor().Vp = Vp;
#ifdef STING_TRACE
    // Point this OS thread's event sink at the VP it is about to run: a VP
    // is pinned to one PP for life, so its ring has exactly one writer.
    obs::setThreadTraceBuffer(Vp->traceBuffer());
#endif
    switchContext(PpCtx, Vp->SchedCtx);
#ifdef STING_TRACE
    obs::setThreadTraceBuffer(nullptr);
#endif
    currentCursor().Vp = nullptr;
  }

  currentCursor() = ExecutionCursor();
}

} // namespace sting
