//===- core/policy/LocalLifoPolicy.cpp - Per-VP LIFO policy ----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// LIFO dispatch: the most recently created thread runs first. The paper
// recommends this for tree-structured result-parallel programs — under
// futures it runs threads computing *later* results first, so touches of
// earlier results find them still delayed/scheduled and steal them,
// unfolding the call graph without context switches (section 4.1.1).
//
// Backed by the lock-free fast path (DESIGN.md section 8): the owning VP
// pushes and pops the bottom of a Chase-Lev deque with no atomic RMW;
// remote enqueuers post to an MPSC mailbox the owner drains at dispatch.
//
//===----------------------------------------------------------------------===//

#include "core/PolicyManager.h"

#include "core/VirtualProcessor.h"
#include "core/policy/FastPath.h"

#include <memory>

namespace sting {

namespace {

class LocalLifoPolicy final : public PolicyManager {
public:
  Schedulable *getNextThread(VirtualProcessor &Vp) override {
    return Q.dequeueNewest(Vp); // LIFO
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

  void drain(VirtualProcessor &Vp,
             const std::function<void(Schedulable &)> &Drop) override {
    Q.drainAll(Vp, Drop);
  }

private:
  fastpath::FastPathQueue Q;
};

} // namespace

PolicyFactory makeLocalLifoPolicy() {
  return [](VirtualMachine &, unsigned) {
    return std::make_unique<LocalLifoPolicy>();
  };
}

} // namespace sting
