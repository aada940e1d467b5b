//===- core/policy/PriorityPolicy.cpp - Priority scheduling ----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// Per-VP priority queues: larger Thread::priority dispatches first, FIFO
// among equals. This is the scheduling half of the paper's speculative
// support — "promising tasks can execute before unlikely ones because
// priorities are programmable" (section 4.3).
//
//===----------------------------------------------------------------------===//

#include "core/PolicyManager.h"

#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "support/SpinLock.h"

#include <map>
#include <memory>
#include <mutex>

namespace sting {

namespace {

class PriorityPolicy final : public PolicyManager {
public:
  PriorityPolicy(VirtualMachine &Vm, unsigned VpIndex)
      : Vm(&Vm), Cursor(VpIndex) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
    static_assert(offsetof(PriorityPolicy, Cursor) >= 64,
                  "the per-fork cursor stays off the vptr line remote "
                  "enqueuers load");
#pragma GCC diagnostic pop
  }

  Schedulable *getNextThread(VirtualProcessor &) override {
    if (Size.load(std::memory_order_acquire) == 0)
      return nullptr;
    std::lock_guard<SpinLock> Guard(Lock);
    if (Items.empty())
      return nullptr;
    auto First = Items.begin();
    Schedulable *Item = First->second;
    Items.erase(First);
    Size.fetch_sub(1, std::memory_order_release);
    return Item;
  }

  void enqueueThread(Schedulable &Item, VirtualProcessor &,
                     EnqueueReason Reason) override {
    // Read the id before publishing: once the item is visible in a queue
    // another VP (dispatch or steal) may pop and recycle it concurrently.
    const std::uint64_t TraceId = Item.schedThreadId();
    std::size_t Depth;
    {
      std::lock_guard<SpinLock> Guard(Lock);
      // multimap keeps equal keys in insertion order -> FIFO within a level.
      Items.emplace(Item.schedPriority(), &Item);
      Depth = Size.fetch_add(1, std::memory_order_release) + 1;
    }
    STING_TRACE_EVENT(Enqueue, TraceId,
                      obs::enqueuePayload(Depth,
                                          static_cast<std::uint8_t>(Reason)));
  }

  bool hasReadyWork(const VirtualProcessor &) const override {
    return Size.load(std::memory_order_acquire) != 0;
  }

  void loadDepths(const VirtualProcessor &, std::uint64_t &ReadyDepth,
                  std::uint64_t &MailboxDepth) const override {
    ReadyDepth = Size.load(std::memory_order_acquire);
    MailboxDepth = 0;
  }

  VirtualProcessor &selectVpForNewThread(VirtualProcessor &,
                                         const Thread &) override {
    // Only the owning VP forks through its own policy, so the round-robin
    // cursor is a plain owner-only word.
    return Vm->vp(Cursor++ % Vm->numVps());
  }

  void drain(VirtualProcessor &,
             const std::function<void(Schedulable &)> &Drop) override {
    std::lock_guard<SpinLock> Guard(Lock);
    for (auto &[Priority, Item] : Items)
      Drop(*Item);
    Items.clear();
    Size.store(0, std::memory_order_release);
  }

private:
  VirtualMachine *Vm;
  SpinLock Lock;
  std::multimap<int, Schedulable *, std::greater<int>> Items;
  std::atomic<std::size_t> Size{0};
  /// Next placement, counted from this VP's own index so VPs forking at
  /// the same time start on different targets. Written on every fork, so
  /// it sits on a line of its own, off the vptr line remote enqueuers load.
  alignas(64) unsigned Cursor;
};

} // namespace

PolicyFactory makePriorityPolicy() {
  return [](VirtualMachine &Vm, unsigned VpIndex) {
    return std::make_unique<PriorityPolicy>(Vm, VpIndex);
  };
}

} // namespace sting
