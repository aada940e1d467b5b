//===- core/policy/StealHalfPolicy.cpp - Two-level queues + migration ------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The migration-capable policy from the paper's design discussion
// (section 3.3): threads are classified by granularity — evaluating TCBs
// live on a VP-private queue that is never a migration target, while
// scheduled threads live on a public queue from which idle VPs steal half.
// This realizes "only scheduled threads can be migrated ... the evaluating
// thread queue is local to the VP on which it was created", which lets the
// private queue skip ready-queue contention entirely.
//
// Backed by the lock-free fast path (DESIGN.md section 8): the public
// queue is a Chase-Lev deque — the owner pushes/pops without locks and an
// idle sibling steals a batch of up to half the visible elements from the
// top, one CAS per element, preserving FIFO order. The private queue is a
// plain intrusive list (owner-only by construction; remote wakeups of
// pinned TCBs arrive through the mailbox and are routed by the owner).
//
//===----------------------------------------------------------------------===//

#include "core/PolicyManager.h"

#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "core/policy/FastPath.h"
#include "core/policy/Siblings.h"
#include "support/Chaos.h"
#include "support/Random.h"

#include <memory>

namespace sting {

namespace {

class StealHalfPolicy final : public PolicyManager {
public:
  StealHalfPolicy(VirtualMachine &Vm, unsigned VpIndex)
      : VpIndex(VpIndex), Peers(Vm, VpIndex) {}

  Schedulable *getNextThread(VirtualProcessor &Vp) override {
    fastpath::drainMailbox(Mailbox, Vp,
                          [&](Schedulable &Item) { route(Item); });
    // Private (evaluating) work first: resuming a blocked thread preserves
    // its warm TCB; then local public threads in FIFO order.
    if (!Private.empty()) {
      Schedulable &Item = Private.popFront();
      PrivateSize.store(PrivateSize.load(std::memory_order_relaxed) - 1,
                        std::memory_order_release);
      return &Item;
    }
    return Public.takeTop();
  }

  void enqueueThread(Schedulable &Item, VirtualProcessor &Vp,
                     EnqueueReason Reason) override {
    if (!fastpath::onOwner(Vp))
      return fastpath::postRemote(Mailbox, Item, Vp, Reason);
    // Read the id before publishing: once the item is visible in a queue
    // another VP (dispatch or steal) may pop and recycle it concurrently.
    const std::uint64_t TraceId = Item.schedThreadId();
    std::size_t Depth;
    if (Item.isTcb()) {
      pushPrivate(Item);
      Depth = PrivateSize.load(std::memory_order_relaxed);
    } else {
      Public.pushBottom(Item);
      Depth = Public.size();
    }
    STING_TRACE_EVENT(Enqueue, TraceId,
                      obs::enqueuePayload(Depth,
                                          static_cast<std::uint8_t>(Reason)));
  }

  bool hasReadyWork(const VirtualProcessor &) const override {
    return PrivateSize.load(std::memory_order_acquire) != 0 ||
           !Public.empty() || !Mailbox.empty();
  }

  void loadDepths(const VirtualProcessor &, std::uint64_t &ReadyDepth,
                  std::uint64_t &MailboxDepth) const override {
    ReadyDepth = PrivateSize.load(std::memory_order_acquire) + Public.size();
    MailboxDepth = Mailbox.size();
  }

  Schedulable *vpIdle(VirtualProcessor &Vp) override {
    // Dynamic load balancing in two phases. First, randomized two-choice
    // selection: probe two distinct random siblings and steal from the one
    // with the deeper visible deque. Power-of-two-choices keeps thieves
    // from convoying on the same victim (the failure mode of a fixed scan
    // order when one VP holds all the work and many VPs go idle at once)
    // while staying O(1) per idle transition. The RNG is a private
    // Xoshiro256 seeded from (chaos seed, VP index), so chaos soak runs
    // replay the same probe sequence for a given seed. Second, if both
    // probes come up empty, fall back to the exhaustive nearest-first
    // sweep — randomized probing alone could starve a two-VP machine or
    // miss the single busy sibling indefinitely.
    const std::size_t N = Peers.size();
    if (N > 2) {
      std::size_t Ia = siblingIndex(N);
      std::size_t Ib = siblingIndex(N);
      // Re-draw once for distinctness; a duplicate pair degrades to a
      // single probe, which the fallback sweep below covers anyway.
      if (Ib == Ia)
        Ib = siblingIndex(N);
      StealHalfPolicy *A = Peers[Ia];
      StealHalfPolicy *B = Ib == Ia ? nullptr : Peers[Ib];
      if (A && B && B->Public.size() > A->Public.size())
        std::swap(A, B);
      for (StealHalfPolicy *Victim : {A, B})
        if (Victim)
          if (Schedulable *Item = stealFrom(*Victim, Vp))
            return Item;
    }
    return Peers.firstOf([&](StealHalfPolicy &Victim, std::size_t) {
      return stealFrom(Victim, Vp);
    });
  }

  void drain(VirtualProcessor &,
             const std::function<void(Schedulable &)> &Drop) override {
    // Runs single-threaded after the PPs have joined.
    Mailbox.drain(Drop);
    while (!Private.empty()) {
      PrivateSize.store(PrivateSize.load(std::memory_order_relaxed) - 1,
                        std::memory_order_release);
      Drop(Private.popFront());
    }
    while (Schedulable *Item = Public.takeTop())
      Drop(*Item);
  }

private:
  /// Picks a random VP index other than our own. Requires N > 1.
  std::size_t siblingIndex(std::size_t N) {
    std::size_t Pick = StealRng.nextBelow(N - 1);
    if (Pick >= VpIndex)
      ++Pick; // skew past our own slot
    return Pick;
  }

  /// Steals up to half of \p Victim's visible public deque, one CAS per
  /// element. Elements come off the victim's top (its FIFO end), so the
  /// batch preserves the victim's dispatch order; the first stolen element
  /// dispatches here immediately and the rest are pushed to our own deque
  /// bottom, where takeTop recovers the same order. \returns the element
  /// to dispatch, or null if nothing was moved.
  Schedulable *stealFrom(StealHalfPolicy &Victim, VirtualProcessor &Vp) {
    std::size_t Visible = Victim.Public.size();
    if (Visible == 0)
      return nullptr;
    if (STING_CHAOS_FIRE(StealDeny)) {
      STING_TRACE_EVENT(ChaosInject, 0,
                        static_cast<std::uint32_t>(chaos::Site::StealDeny));
      return nullptr;
    }
    std::size_t Target = Visible / 2 + (Visible % 2); // at least 1
    Schedulable *First = nullptr;
    std::size_t Moved = 0;
    while (Moved != Target) {
      Schedulable *Item = nullptr;
      WorkStealingDeque::StealResult R = Victim.Public.steal(Item);
      if (R == WorkStealingDeque::StealResult::Lost) {
        Vp.stats().DequeStealCas.inc();
        // Another thief (or the victim's last-element pop) won; the
        // deque may still hold work, so retry the same victim.
        continue;
      }
      if (R == WorkStealingDeque::StealResult::Empty)
        break;
      if (First)
        Public.pushBottom(*Item);
      else
        First = Item;
      ++Moved;
    }
    if (Moved == 0)
      return nullptr;
    Vp.stats().DequeSteals.add(Moved);
    STING_TRACE_EVENT(Migrate, 0,
                      static_cast<std::uint32_t>(
                          Moved > 0xffffffff ? 0xffffffff : Moved));
    if (Moved > 1)
      Vp.vm().notifyWork();
    return First;
  }

  void pushPrivate(Schedulable &Item) {
    Private.pushBack(Item);
    PrivateSize.store(PrivateSize.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
  }

  /// Mailbox-drain router: pinned TCBs rejoin the private queue, raw
  /// threads become public (and thus stealable) work.
  void route(Schedulable &Item) {
    if (Item.isTcb())
      pushPrivate(Item);
    else
      Public.pushBottom(Item);
  }

  unsigned VpIndex;
  fastpath::Siblings<StealHalfPolicy> Peers;

  /// Victim-probe RNG, owner-only (vpIdle runs on the VP's dispatcher).
  /// Seeded from (chaos seed, VP index) so a chaos run's probe sequence is
  /// a pure function of the seed; outside chaos builds the seed defaults
  /// to 1 and runs are still repeatable.
  Xoshiro256 StealRng{chaos::seed() * 0x9E3779B97F4A7C15ull + VpIndex + 1};

  /// Evaluating TCBs; never a migration target. Owner-only plain list —
  /// the size mirror is atomic because hasReadyWork is read cross-thread
  /// (idle PPs, the watchdog's heartbeat sampler).
  IntrusiveList<Schedulable, ReadyQueueTag> Private;
  std::atomic<std::size_t> PrivateSize{0};

  WorkStealingDeque Public; ///< scheduled threads; migratable
  RemoteMailbox Mailbox;
};

} // namespace

PolicyFactory makeStealHalfPolicy() {
  return [](VirtualMachine &Vm, unsigned VpIndex) {
    return std::make_unique<StealHalfPolicy>(Vm, VpIndex);
  };
}

} // namespace sting
