//===- tuple/Specialize.cpp - Specialized tuple-space representations --------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// "In our current implementation, tuple-spaces can be specialized as
// synchronized vectors, queues, sets, shared variables, semaphores, or
// bags; the operations permitted on tuple-spaces remain invariant over
// their representation." (paper section 4.2)
//
// Each representation implements the same put/match interface over storage
// tailored to its access pattern; shape restrictions (singleton tuples,
// [index value] pairs) are checked at the operation boundary.
//
// The queue and bag/set forms use the same direct put→waiter handoff as
// the hashed representation (DESIGN.md §12): a put matches registered
// waiters under the storage lock and wakes exactly the threads it
// satisfied — a queue put with parked takers wakes one taker, not all of
// them. The shared-variable, semaphore and vector forms keep ParkList
// (semaphore puts were already wake-one; the others are cell overwrites
// where every waiter's predicate may flip).
//
//===----------------------------------------------------------------------===//

#include "tuple/RepBase.h"

#include "core/Current.h"
#include "core/Tcb.h"
#include "core/ThreadController.h"
#include "gc/Object.h"
#include "obs/TraceBuffer.h"
#include "support/Chaos.h"
#include "sync/HandoffList.h"
#include "sync/ParkList.h"

#include <deque>
#include <mutex>
#include <vector>

namespace sting {
namespace {

using namespace sting::detail;

/// Common base for the singleton-tuple representations: storage is a set
/// of gc values (marked by the representation's markRoots), guarded by one
/// lock, with one waiter list.
class SingletonRepBase : public TupleSpaceRepBase {
public:
  using TupleSpaceRepBase::TupleSpaceRepBase;

  std::optional<Match> matchUntil(const Tuple &Template, bool Remove,
                                  Deadline D) override {
    std::optional<Match> Result;
    Waiters.awaitUntil(
        [&] {
          Result = tryMatch(Template, Remove);
          return Result.has_value();
        },
        this, D);
    return Result;
  }

protected:
  /// Single-value tuples only.
  static gc::Value soleValue(const Tuple &T) {
    STING_CHECK(T.size() == 1 && T.front().isDatum(),
                "this representation holds singleton tuples");
    return T.front().value();
  }

  static Match singletonMatch(gc::Value V, const Tuple &Template) {
    return buildMatch({V}, Template);
  }

  mutable SpinLock Lock;
  ParkList Waiters;
};

//===----------------------------------------------------------------------===//
// Handoff machinery for the queue and bag/set forms.
//===----------------------------------------------------------------------===//

struct RegisteredTag;

/// Singleton reps whose put hands the value straight to registered
/// waiters. Storage access is split into a locked core (matchLocked /
/// restoreLocked) so a depositor can match waiters' templates against
/// the just-updated storage without reacquiring the lock. All values are
/// plain datums here, so every deposit is "direct" in the hashed rep's
/// sense: there is no nudge path, a completed registration is always a
/// delivery.
class HandoffSingletonRep : public SingletonRepBase {
protected:
  using SingletonRepBase::SingletonRepBase;

  /// A blocked reader's registration. It stays on the representation's
  /// Registered list from enqueue to retirement, so markRoots keeps its
  /// Slot alive (thread stacks are not scanned, and a delivery may sit in
  /// the slot across a park).
  struct SingletonWaiter : HandoffWaiterBase, ListNode<RegisteredTag> {
    SingletonWaiter(const Tuple &T, bool Remove)
        : Template(&T), Remove(Remove) {}
    using HandoffWaiterBase::isLinked; // armed in Handoff

    const Tuple *Template;
    bool Remove;
    gc::Value Slot;
  };

  /// Marks stored values (Lock held).
  virtual void markStorageLocked(
      const std::function<void(gc::Value)> &Mark) = 0;

  /// The storage-specific match, with Lock held. A Remove match consumes
  /// from storage.
  virtual std::optional<gc::Value> matchLocked(const Tuple &Template,
                                               bool Remove) = 0;

  /// Returns a consumed value to storage (Lock held): a take delivery
  /// whose waiter unwound (timeout racing the handoff, cancellation) goes
  /// back where it came from.
  virtual void restoreLocked(gc::Value V) = 0;

  /// With Lock held and storage just updated: hand the new state to every
  /// waiter whose template now matches. rd waiters all receive the value;
  /// a take match consumes storage (via matchLocked), so exactly the
  /// first matching taker is satisfied and later takers stay armed.
  void deliverLocked(std::vector<ThreadRef> &Wakes) {
    std::uint32_t Deliveries = 0;
    Handoff.visit([&](SingletonWaiter &W) {
      if (auto V = matchLocked(*W.Template, W.Remove)) {
        W.Slot = *V;
        Wakes.push_back(Handoff.deliver(W));
        ++Deliveries;
      }
      return true;
    });
    if (Deliveries) {
      TupleStatsSlot &S = Stats.local();
      S.Handoffs.fetch_add(Deliveries, std::memory_order_relaxed);
      S.Wakeups.fetch_add(Deliveries, std::memory_order_relaxed);
      STING_TRACE_EVENT(TupleHandoff,
                        currentThread() ? currentThread()->id() : 0,
                        Deliveries);
    }
  }

  static void fire(const std::vector<ThreadRef> &Wakes) {
    for (const ThreadRef &T : Wakes)
      HandoffList<SingletonWaiter>::wake(T);
  }

public:
  void markRoots(const std::function<void(gc::Value)> &Mark) override {
    std::lock_guard<SpinLock> Guard(Lock);
    markStorageLocked(Mark);
    for (SingletonWaiter &W : Registered)
      Mark(W.Slot);
  }

  std::optional<Match> tryMatch(const Tuple &Template,
                                bool Remove) override {
    std::lock_guard<SpinLock> Guard(Lock);
    if (auto V = matchLocked(Template, Remove))
      return singletonMatch(*V, Template);
    return std::nullopt;
  }

  std::optional<Match> matchUntil(const Tuple &Template, bool Remove,
                                  Deadline D) override {
    if (auto M = tryMatch(Template, Remove))
      return M;
    if (D.expired())
      return std::nullopt;

    // Contended path: mirror of the hashed representation's registered
    // episode (DESIGN.md §12) without the nudge state — register, re-scan
    // (the lock orders registration against deposits, so no wakeup can be
    // lost), then park until delivered or timed out.
    for (;;) {
      SingletonWaiter W(Template, Remove);
      {
        std::lock_guard<SpinLock> Guard(Lock);
        Handoff.enqueue(W);
        Registered.pushBack(W);
      }
      std::optional<Match> M;
      try {
        M = tryMatch(Template, Remove);
      } catch (...) {
        retire(W, /*Redeposit=*/true);
        throw;
      }
      if (M) {
        // Our own scan won; a racing delivery of a take value was
        // consumed from storage and must go back.
        retire(W, /*Redeposit=*/true);
        return M;
      }
      if (D.expired()) {
        if (auto Got = retire(W, /*Redeposit=*/false))
          return singletonMatch(*Got, Template);
        return std::nullopt;
      }

      Stats.local().Blocks.fetch_add(1, std::memory_order_relaxed);
      for (;;) {
        if (STING_CHAOS_FIRE(PreemptPoint)) {
          STING_TRACE_EVENT(ChaosInject,
                            currentThread() ? currentThread()->id() : 0,
                            static_cast<std::uint32_t>(
                                chaos::Site::PreemptPoint));
          ThreadController::yieldProcessor();
        }
        try {
          ThreadController::parkCurrent(ParkClass::Kernel, this, D);
        } catch (...) {
          retire(W, /*Redeposit=*/true);
          throw;
        }
        bool TimedOut = false, Delivered = false;
        gc::Value Got;
        {
          std::lock_guard<SpinLock> Guard(Lock);
          if (W.isLinked()) {
            // Still armed: timeout and delivery arbitrate under Lock, so
            // reporting the timeout here cannot strand a value.
            if (D.expired()) {
              Handoff.finish(W);
              unregisterLocked(W);
              TimedOut = true;
            }
            // else: spurious unpark; stay registered and re-park.
          } else {
            Delivered = true; // deliver() is the only completion here
            Got = W.Slot;
            unregisterLocked(W);
          }
        }
        if (TimedOut)
          return std::nullopt;
        if (Delivered)
          return singletonMatch(Got, Template);
      }
    }
  }

private:
  static void unregisterLocked(SingletonWaiter &W) {
    IntrusiveList<SingletonWaiter, RegisteredTag>::erase(W);
  }

  /// Ends \p W's registration episode; \returns the value a racing put
  /// delivered, if any. With \p Redeposit, a delivered take value is
  /// returned to storage (and offered onward) in the same critical section
  /// that unregisters the slot, so it is never left unrooted or stranded.
  std::optional<gc::Value> retire(SingletonWaiter &W, bool Redeposit) {
    std::optional<gc::Value> Got;
    std::vector<ThreadRef> Wakes;
    {
      std::lock_guard<SpinLock> Guard(Lock);
      if (Handoff.finish(W) == HandoffState::Delivered) {
        Got = W.Slot;
        if (Redeposit && W.Remove) {
          restoreLocked(*Got);
          deliverLocked(Wakes);
        }
      }
      unregisterLocked(W);
    }
    fire(Wakes);
    return Got;
  }

protected:
  HandoffList<SingletonWaiter> Handoff;
  /// Every waiter between enqueue and retirement, armed or delivered.
  IntrusiveList<SingletonWaiter, RegisteredTag> Registered;
};

//===----------------------------------------------------------------------===//
// Queue: ordered singleton tuples, no content matching on take.
//===----------------------------------------------------------------------===//

class QueueRep final : public HandoffSingletonRep {
public:
  using HandoffSingletonRep::HandoffSingletonRep;

  void put(Tuple T) override {
    gc::Value V = soleValue(T);
    std::vector<ThreadRef> Wakes;
    {
      std::lock_guard<SpinLock> Guard(Lock);
      Items.push_back(V);
      deliverLocked(Wakes);
    }
    fire(Wakes);
  }

  std::size_t size() const override {
    std::lock_guard<SpinLock> Guard(Lock);
    return Items.size();
  }

private:
  void markStorageLocked(
      const std::function<void(gc::Value)> &Mark) override {
    for (gc::Value V : Items)
      Mark(V);
  }

  std::optional<gc::Value> matchLocked(const Tuple &Template,
                                       bool Remove) override {
    checkTemplate(Template);
    if (Items.empty())
      return std::nullopt;
    gc::Value V = Items.front();
    if (Remove)
      Items.pop_front();
    return V;
  }

  void restoreLocked(gc::Value V) override {
    // The value was taken from the front; put it back there so FIFO order
    // survives an unwound delivery.
    Items.push_front(V);
  }

  static void checkTemplate(const Tuple &Template) {
    STING_CHECK(Template.size() == 1 && Template.front().isFormal(),
                "queue representation matches only [?x] templates");
  }

  std::deque<gc::Value> Items;
};

//===----------------------------------------------------------------------===//
// Bag / Set: unordered singleton tuples; templates may be [?x] or [v].
//===----------------------------------------------------------------------===//

class BagRep : public HandoffSingletonRep {
public:
  BagRep(PerVpTupleStats &Stats, bool Dedupe)
      : HandoffSingletonRep(Stats), Dedupe(Dedupe) {}

  void put(Tuple T) override {
    gc::Value V = soleValue(T);
    std::vector<ThreadRef> Wakes;
    {
      std::lock_guard<SpinLock> Guard(Lock);
      if (Dedupe) {
        for (gc::Value Stored : Items)
          if (gc::valueEqual(Stored, V))
            return; // set semantics: ignore duplicates
      }
      Items.push_back(V);
      deliverLocked(Wakes);
    }
    fire(Wakes);
  }

  std::size_t size() const override {
    std::lock_guard<SpinLock> Guard(Lock);
    return Items.size();
  }

private:
  void markStorageLocked(
      const std::function<void(gc::Value)> &Mark) override {
    for (gc::Value V : Items)
      Mark(V);
  }

  std::optional<gc::Value> matchLocked(const Tuple &Template,
                                       bool Remove) override {
    STING_CHECK(Template.size() == 1,
                "bag/set representation holds singleton tuples");
    const Field &TF = Template.front();
    for (auto It = Items.begin(); It != Items.end(); ++It) {
      gc::Value V = *It;
      if (!TF.isFormal() && !gc::valueEqual(TF.value(), V))
        continue;
      if (Remove)
        Items.erase(It);
      return V;
    }
    return std::nullopt;
  }

  void restoreLocked(gc::Value V) override { Items.push_back(V); }

  bool Dedupe;
  std::vector<gc::Value> Items;
};

//===----------------------------------------------------------------------===//
// Shared variable: a single cell; put overwrites, read blocks until set,
// take empties.
//===----------------------------------------------------------------------===//

class SharedVariableRep final : public SingletonRepBase {
public:
  using SingletonRepBase::SingletonRepBase;

  void markRoots(const std::function<void(gc::Value)> &Mark) override {
    std::lock_guard<SpinLock> Guard(Lock);
    Mark(Cell);
  }

  void put(Tuple T) override {
    gc::Value V = soleValue(T);
    {
      std::lock_guard<SpinLock> Guard(Lock);
      Cell = V;
      Full = true;
    }
    Waiters.wakeAll();
  }

  std::optional<Match> tryMatch(const Tuple &Template,
                                bool Remove) override {
    STING_CHECK(Template.size() == 1,
                "shared-variable representation holds singleton tuples");
    const Field &TF = Template.front();
    std::lock_guard<SpinLock> Guard(Lock);
    if (!Full)
      return std::nullopt;
    if (!TF.isFormal() && !gc::valueEqual(TF.value(), Cell))
      return std::nullopt;
    gc::Value V = Cell;
    if (Remove) {
      Full = false;
      Cell = gc::Value::nil();
    }
    return singletonMatch(V, Template);
  }

  std::size_t size() const override {
    std::lock_guard<SpinLock> Guard(Lock);
    return Full ? 1 : 0;
  }

private:
  gc::Value Cell;
  bool Full = false;
};

//===----------------------------------------------------------------------===//
// Semaphore: only counts matter; the paper's get/put over a singleton
// token tuple compile down to P and V.
//===----------------------------------------------------------------------===//

class SemaphoreRep final : public SingletonRepBase {
public:
  using SingletonRepBase::SingletonRepBase;

  /// Tokens are counts; no heap value is ever stored.
  void markRoots(const std::function<void(gc::Value)> &) override {}

  void put(Tuple T) override {
    STING_CHECK(T.size() == 1, "semaphore representation takes one token");
    Tokens.fetch_add(1, std::memory_order_release);
    Waiters.wakeOne();
  }

  std::optional<Match> tryMatch(const Tuple &Template,
                                bool Remove) override {
    STING_CHECK(Template.size() == 1,
                "semaphore representation takes one token");
    if (!Remove) {
      // rd: observe a token without consuming.
      if (Tokens.load(std::memory_order_acquire) == 0)
        return std::nullopt;
      return singletonMatch(gc::Value::fixnum(1), Template);
    }
    std::int64_t Cur = Tokens.load(std::memory_order_relaxed);
    while (Cur > 0) {
      if (Tokens.compare_exchange_weak(Cur, Cur - 1,
                                       std::memory_order_acquire))
        return singletonMatch(gc::Value::fixnum(1), Template);
    }
    return std::nullopt;
  }

  std::size_t size() const override {
    std::int64_t N = Tokens.load(std::memory_order_acquire);
    return N > 0 ? static_cast<std::size_t>(N) : 0;
  }

private:
  std::atomic<std::int64_t> Tokens{0};
};

//===----------------------------------------------------------------------===//
// Vector: tuples of the form [index value]; reads of [index ?x] block
// until the cell is written.
//===----------------------------------------------------------------------===//

class VectorRep final : public TupleSpaceRepBase {
public:
  using TupleSpaceRepBase::TupleSpaceRepBase;

  void markRoots(const std::function<void(gc::Value)> &Mark) override {
    std::lock_guard<SpinLock> Guard(Lock);
    for (const auto &Cell : Cells)
      if (Cell)
        Mark(*Cell);
  }

  void put(Tuple T) override {
    STING_CHECK(T.size() == 2 && T[0].isDatum() && T[0].value().isFixnum() &&
                    T[1].isDatum(),
                "vector representation stores [index value] tuples");
    auto Index = static_cast<std::size_t>(T[0].value().asFixnum());
    {
      std::lock_guard<SpinLock> Guard(Lock);
      if (Cells.size() <= Index)
        Cells.resize(Index + 1);
      Cells[Index] = T[1].value();
    }
    Waiters.wakeAll();
  }

  std::optional<Match> matchUntil(const Tuple &Template, bool Remove,
                                  Deadline D) override {
    std::optional<Match> Result;
    Waiters.awaitUntil(
        [&] {
          Result = tryMatch(Template, Remove);
          return Result.has_value();
        },
        this, D);
    return Result;
  }

  std::optional<Match> tryMatch(const Tuple &Template,
                                bool Remove) override {
    STING_CHECK(Template.size() == 2 && Template[0].isDatum() &&
                    Template[0].value().isFixnum(),
                "vector representation matches [index ?x] templates");
    auto Index = static_cast<std::size_t>(Template[0].value().asFixnum());
    std::lock_guard<SpinLock> Guard(Lock);
    if (Index >= Cells.size() || !Cells[Index])
      return std::nullopt;
    gc::Value V = *Cells[Index];
    const Field &TF = Template[1];
    if (!TF.isFormal() && !gc::valueEqual(TF.value(), V))
      return std::nullopt;
    if (Remove)
      Cells[Index].reset();
    return buildMatch({Template[0].value(), V}, Template);
  }

  std::size_t size() const override {
    std::lock_guard<SpinLock> Guard(Lock);
    std::size_t N = 0;
    for (const auto &Cell : Cells)
      N += Cell.has_value();
    return N;
  }

private:
  mutable SpinLock Lock;
  std::vector<std::optional<gc::Value>> Cells;
  ParkList Waiters;
};

} // namespace

std::unique_ptr<detail::TupleSpaceRepBase>
detail::makeSpecializedRep(TupleSpaceRep Rep, PerVpTupleStats &Stats) {
  switch (Rep) {
  case TupleSpaceRep::Queue:
    return std::make_unique<QueueRep>(Stats);
  case TupleSpaceRep::Bag:
    return std::make_unique<BagRep>(Stats, /*Dedupe=*/false);
  case TupleSpaceRep::Set:
    return std::make_unique<BagRep>(Stats, /*Dedupe=*/true);
  case TupleSpaceRep::SharedVariable:
    return std::make_unique<SharedVariableRep>(Stats);
  case TupleSpaceRep::Semaphore:
    return std::make_unique<SemaphoreRep>(Stats);
  case TupleSpaceRep::Vector:
    return std::make_unique<VectorRep>(Stats);
  case TupleSpaceRep::Hashed:
    break;
  }
  STING_UNREACHABLE("not a specialized representation");
}

} // namespace sting
