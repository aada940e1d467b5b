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
    // Mailbox items entered the machine at their post time; appending them
    // at the bottom keeps global FIFO order within this VP.
    fastpath::drainMailbox(Mailbox, Vp,
                          [&](Schedulable &Item) { Deque.pushBottom(Item); });
    return Deque.takeTop(); // FIFO
  }

  void enqueueThread(Schedulable &Item, VirtualProcessor &Vp,
                     EnqueueReason Reason) override {
    if (!fastpath::onOwner(Vp))
      return fastpath::postRemote(Mailbox, Item, Vp, Reason);
    // Read the id before publishing: once the item is visible in a queue
    // another VP (dispatch or steal) may pop and recycle it concurrently.
    const std::uint64_t TraceId = Item.schedThreadId();
    Deque.pushBottom(Item);
    STING_TRACE_EVENT(Enqueue, TraceId,
                      obs::enqueuePayload(Deque.size(),
                                          static_cast<std::uint8_t>(Reason)));
  }

  bool hasReadyWork(const VirtualProcessor &) const override {
    return !Deque.empty() || !Mailbox.empty();
  }

  void loadDepths(const VirtualProcessor &, std::uint64_t &ReadyDepth,
                  std::uint64_t &MailboxDepth) const override {
    ReadyDepth = Deque.size();
    MailboxDepth = Mailbox.size();
  }

  VirtualProcessor &selectVpForNewThread(VirtualProcessor &) override {
    // Only the owning VP forks through its own policy, so the round-robin
    // cursor is a plain owner-only word.
    return Vm->vp(Cursor++ % Vm->numVps());
  }

  void drain(VirtualProcessor &,
             const std::function<void(Schedulable &)> &Drop) override {
    // Runs single-threaded after the PPs have joined.
    Mailbox.drain(Drop);
    while (Schedulable *Item = Deque.takeTop())
      Drop(*Item);
  }

private:
  VirtualMachine *Vm;
  WorkStealingDeque Deque;
  RemoteMailbox Mailbox;
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
