//===- core/policy/LocalFifoPolicy.cpp - Per-VP FIFO policy ----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The default policy: one FIFO ready queue per VP, round-robin placement of
// new threads across the machine. With preemption enabled this is the
// "round-robin preemptive scheduler" the paper recommends for master/slave
// and worker-farm fairness (sections 3.3, 4.2.2). No migration.
//
// Backed by the lock-free fast path (DESIGN.md section 8): the owning VP
// pushes at the bottom of a Chase-Lev deque and pops FIFO from the top
// (one uncontended CAS); remote enqueuers post to an MPSC mailbox the
// owner drains at dispatch, preserving arrival order.
//
//===----------------------------------------------------------------------===//

#include "core/PolicyManager.h"

#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "core/policy/FastPath.h"

#include <memory>

namespace sting {

namespace {

class LocalFifoPolicy final : public PolicyManager {
public:
  LocalFifoPolicy(VirtualMachine &Vm, unsigned VpIndex)
      : Vm(&Vm), Cursor(VpIndex) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
    static_assert(offsetof(LocalFifoPolicy, Cursor) >= 64,
                  "the per-fork cursor stays off the vptr line remote "
                  "enqueuers load");
#pragma GCC diagnostic pop
  }

  Schedulable *getNextThread(VirtualProcessor &Vp) override {
    return Q.dequeue(Vp); // FIFO
  }

  void enqueueThread(Schedulable &Item, VirtualProcessor &Vp,
                     EnqueueReason Reason) override {
    Q.enqueue(Item, Vp, Reason);
  }

  bool hasReadyWork(const VirtualProcessor &) const override {
    return Q.hasReadyWork();
  }

  void loadDepths(const VirtualProcessor &, std::uint64_t &ReadyDepth,
                  std::uint64_t &MailboxDepth) const override {
    Q.loadDepths(ReadyDepth, MailboxDepth);
  }

  VirtualProcessor &selectVpForNewThread(VirtualProcessor &) override {
    // Only the owning VP forks through its own policy, so the round-robin
    // cursor is a plain owner-only word.
    return Vm->vp(Cursor++ % Vm->numVps());
  }

  void drain(VirtualProcessor &Vp,
             const std::function<void(Schedulable &)> &Drop) override {
    Q.drainAll(Vp, Drop);
  }

private:
  VirtualMachine *Vm;
  fastpath::FastPathQueue Q;
  /// Next placement, counted from this VP's own index so VPs forking at
  /// the same time start on different targets. Written on every fork, so
  /// it sits on a line of its own, off the vptr line remote enqueuers load.
  alignas(64) unsigned Cursor;
};

} // namespace

PolicyFactory makeLocalFifoPolicy() {
  return [](VirtualMachine &Vm, unsigned VpIndex) {
    return std::make_unique<LocalFifoPolicy>(Vm, VpIndex);
  };
}

} // namespace sting
