//===- core/policy/LocalFifoPolicy.cpp - Per-VP FIFO policy ----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The default policy: one FIFO ready queue per VP. With preemption enabled
// this is the "round-robin preemptive scheduler" the paper recommends for
// master/slave and worker-farm fairness (sections 3.3, 4.2.2).
//
// Placement is lazy task creation (Mohr, Kranz & Halstead): a stealable
// thread (a future) stays on its forker's VP, where a touch usually runs
// it inline (4.1.1); it becomes parallel work only when an idle sibling
// takes it, and only once that sibling has seen it at the top of the deque
// on two idle probes in a row, so a future touched within microseconds is
// never given away. Non-stealable threads (long-lived workers, lanes) are
// spread round-robin across the machine.
//
// Backed by the lock-free fast path (DESIGN.md section 8): the owning VP
// pushes at the bottom of a Chase-Lev deque and pops FIFO from the top
// (one uncontended CAS); remote enqueuers post to an MPSC mailbox the
// owner drains at dispatch, preserving arrival order.
//
//===----------------------------------------------------------------------===//

#include "core/PolicyManager.h"

#include "core/Thread.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "core/policy/FastPath.h"
#include "core/policy/Siblings.h"

#include <memory>
#include <vector>

namespace sting {

namespace {

class LocalFifoPolicy final : public PolicyManager {
public:
  LocalFifoPolicy(VirtualMachine &Vm, unsigned VpIndex)
      : Vm(&Vm), Cursor(VpIndex), Peers(Vm, VpIndex),
        Seen(Vm.config().NumVps, -1) {
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

  VirtualProcessor &selectVpForNewThread(VirtualProcessor &Creator,
                                         const Thread &T) override {
    // A future stays home: the owner push touches no other VP's line.
    if (T.isStealable())
      return Creator;
    // Only the owning VP forks through its own policy, so the round-robin
    // cursor is a plain owner-only word.
    return Vm->vp(Cursor++ % Vm->numVps());
  }

  Schedulable *vpIdle(VirtualProcessor &Vp) override {
    // Nearest sibling first; at most one fresh thread per idle probe.
    return Peers.firstOf(
        [&](LocalFifoPolicy &Victim, std::size_t I) -> Schedulable * {
          using SR = WorkStealingDeque::StealResult;
          Schedulable *Item = nullptr;
          const SR R = Victim.Q.stealFresh(Item, Seen[I]);
          // Lost: Top moved under us, so the next probe starts a new
          // sighting rather than retrying.
          if (R == SR::Lost)
            Vp.stats().DequeStealCas.inc();
          if (R != SR::Ok)
            return nullptr;
          Vp.stats().DequeSteals.inc();
          STING_TRACE_EVENT(Migrate, 0, 1);
          return Item;
        });
  }

  void drain(VirtualProcessor &Vp,
             const std::function<void(Schedulable &)> &Drop) override {
    Q.drainAll(Vp, Drop);
  }

private:
  VirtualMachine *Vm;
  fastpath::FastPathQueue Q;
  /// Next placement of a non-stealable thread, counted from this VP's own
  /// index so VPs forking at the same time start on different targets.
  /// It and the owner-only steal state below sit on a line of their own,
  /// off the vptr line remote enqueuers load.
  alignas(64) unsigned Cursor;
  fastpath::Siblings<LocalFifoPolicy> Peers;
  /// Per sibling VP, the deque Top this VP's last idle probe found there
  /// (WorkStealingDeque::stealFresh); -1 before the first.
  std::vector<std::int64_t> Seen;
};

} // namespace

PolicyFactory makeLocalFifoPolicy() {
  return [](VirtualMachine &Vm, unsigned VpIndex) {
    return std::make_unique<LocalFifoPolicy>(Vm, VpIndex);
  };
}

} // namespace sting
