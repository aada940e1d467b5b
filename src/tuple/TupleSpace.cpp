//===- tuple/TupleSpace.cpp - Facade and the hashed representation ----------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The general representation follows paper section 4.2: a hash table of
// passive tuples (HP) and, per bin, the blocked readers (HB), with "a
// mutex with every hash bin rather than a global mutex on the entire
// hash table". Tuples whose first field cannot be hashed (live threads)
// live in a wildcard bin scanned by every reader.
//
// The contended path is a direct put→waiter handoff (DESIGN.md §12): a
// blocked reader registers its prepared template in its home bin before
// parking, and a deposit scans the registered waiters under the bin lock,
// transfers the entry straight into one compatible taker's slot (plus a
// reference to every compatible rd waiter) and wakes exactly those
// threads — no insert, no wake-all, no re-scan by the losers. Tuples
// containing live threads cannot be matched under a spinlock (resolution
// may steal and run user code), so they are inserted and compatible
// waiters are *nudged* to re-scan.
//
// Thread fields integrate with stealing: a reader that needs the value of
// a delayed/scheduled thread found in a tuple steals it via threadWait; a
// reader blocked on an *evaluating* thread field waits on that thread
// directly (the paper: "P may choose to either block on one (or both)
// thread(s), or examine other potentially matching tuples").
//
//===----------------------------------------------------------------------===//

#include "tuple/TupleSpace.h"

#include "core/Current.h"
#include "core/Gc.h"
#include "core/Tcb.h"
#include "core/ThreadController.h"
#include "core/VirtualProcessor.h"
#include "obs/Flow.h"
#include "obs/TraceBuffer.h"
#include "gc/GlobalHeap.h"
#include "gc/Object.h"
#include "support/Chaos.h"
#include "sync/HandoffList.h"
#include "tuple/RepBase.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sting {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

const char *tupleSpaceRepName(TupleSpaceRep Rep) {
  switch (Rep) {
  case TupleSpaceRep::Hashed:
    return "hashed";
  case TupleSpaceRep::Queue:
    return "queue";
  case TupleSpaceRep::Bag:
    return "bag";
  case TupleSpaceRep::Set:
    return "set";
  case TupleSpaceRep::SharedVariable:
    return "shared-variable";
  case TupleSpaceRep::Semaphore:
    return "semaphore";
  case TupleSpaceRep::Vector:
    return "vector";
  }
  STING_UNREACHABLE("bad tuple-space representation");
}

TupleSpaceRep chooseRepresentation(const TupleOpsProfile &P) {
  if (P.TokensOnly)
    return TupleSpaceRep::Semaphore;
  if (P.SingleCell)
    return TupleSpaceRep::SharedVariable;
  if (P.IndexedAccess)
    return TupleSpaceRep::Vector;
  if (!P.UsesTemplates && P.SingletonTuples) {
    if (P.OrderedConsumption)
      return TupleSpaceRep::Queue;
    return P.AllowsDuplicates ? TupleSpaceRep::Bag : TupleSpaceRep::Set;
  }
  return TupleSpaceRep::Hashed;
}

Match detail::buildMatch(std::initializer_list<gc::Value> Values,
                         const Tuple &Template) {
  Match M;
  M.Fields.assign(Values.begin(), Values.end());
  M.bindFormals(Template);
  return M;
}

//===----------------------------------------------------------------------===//
// Hashed representation
//===----------------------------------------------------------------------===//

namespace {

using namespace sting::detail;

constexpr std::size_t NumBins = 64;

class HashedRep;
struct BinItemTag;

/// A deposited tuple. Intrusively refcounted and recycled through the
/// owning representation's pool: matchers may pin an entry across
/// thread-field resolution while a competing taker removes it, and a
/// dropped last reference returns the node to the freelist instead of
/// the allocator. While referenced, its datum fields are GC roots (the
/// representation's markRoots).
struct Entry : ListNode<BinItemTag> {
  explicit Entry(HashedRep &Owner) : Owner(Owner) {}

  void retain() { Refs.fetch_add(1, std::memory_order_relaxed); }
  void release(); ///< recycles into Owner's pool on the last reference

  /// Replaces a determined live-thread field with its value, once.
  void resolveField(std::size_t I, gc::Value V) {
    std::lock_guard<SpinLock> Guard(Lock);
    if (Fields[I].isLiveThread())
      Fields[I].becomeDatum(V);
  }

  HashedRep &Owner;
  Tuple Fields;
  SpinLock Lock; ///< guards live-thread resolution and Removed
  /// The depositor's causal flow at put time, handed to the matcher.
  std::uint64_t Flow = 0;
  bool Removed = false;
  std::atomic<std::uint32_t> Refs{0};
  Entry *NextFree = nullptr; ///< pool freelist link (while recycled)
};

/// Minimal intrusive handle; the last release recycles into the pool.
class EntryRef {
public:
  EntryRef() = default;
  explicit EntryRef(Entry *E) : P(E) {
    if (P)
      P->retain();
  }
  /// Takes over a reference the caller already owns.
  static EntryRef adopt(Entry *E) {
    EntryRef R;
    R.P = E;
    return R;
  }
  EntryRef(const EntryRef &O) : P(O.P) {
    if (P)
      P->retain();
  }
  EntryRef(EntryRef &&O) noexcept : P(O.P) { O.P = nullptr; }
  EntryRef &operator=(EntryRef O) noexcept {
    std::swap(P, O.P);
    return *this;
  }
  ~EntryRef() {
    if (P)
      P->release();
  }

  Entry *get() const { return P; }
  Entry &operator*() const { return *P; }
  Entry *operator->() const { return P; }
  explicit operator bool() const { return P != nullptr; }

private:
  Entry *P = nullptr;
};

/// A blocked reader's registration: the prepared template plus the
/// delivery slot, guarded by the home bin's lock (see HandoffList).
struct TupleWaiter : HandoffWaiterBase {
  TupleWaiter(const Tuple &T, bool Remove)
      : Template(&T), Remove(Remove), Arity(T.size()) {}

  const Tuple *Template; ///< stack-pinned for the registration's lifetime
  bool Remove;           ///< take (consume the entry) vs rd (share a ref)
  std::size_t Arity;     ///< producers reject on arity before field compare
  bool IsProxy = false;  ///< heap-owned ProxyReg, no thread parks on it
  EntryRef Slot;         ///< where a deposit lands
};

struct ProxyTag;

/// A heap-owned registration armed on behalf of a *remote* waiter (the
/// multi-VM hook, DESIGN.md §13). Linkage and HandoffState are guarded by
/// the home bin's lock like any TupleWaiter; the completion flags below are
/// guarded by the owning representation's registry lock; lifetime is
/// intrusively refcounted — the registry holds one reference, and every
/// in-flight completion (a deposit's delivery/nudge, an active rescan
/// driver) pins its own, so no path ever touches a freed record.
struct ProxyReg final : TupleWaiter, ListNode<ProxyTag> {
  ProxyReg(std::unique_ptr<Tuple> T, bool Remove, std::uint64_t Id,
           TupleSpace::ProxyDeliverFn Deliver)
      : TupleWaiter(*T, Remove), Owned(std::move(T)), Id(Id),
        Deliver(std::move(Deliver)) {
    IsProxy = true;
  }
  using TupleWaiter::isLinked; // armed in the home bin

  void retain() { Refs.fetch_add(1, std::memory_order_relaxed); }
  /// \returns true when the caller dropped the last reference and must
  /// dispose (the rep unlinks it from its live proxies and deletes).
  bool release() { return Refs.fetch_sub(1, std::memory_order_acq_rel) == 1; }

  std::unique_ptr<Tuple> Owned; ///< what TupleWaiter::Template points at
  std::uint64_t Id;
  TupleSpace::ProxyDeliverFn Deliver;
  std::atomic<std::uint32_t> Refs{1}; ///< the registry's reference

  // Guarded by the representation's RegLock. Exactly one of a retract
  // (Canceled while armed) or a delivery (Delivering) ever owns the
  // registration's outcome — the wire-level mirror of HandoffList's
  // exactly-one-transition-out-of-Armed discipline.
  bool Canceled = false;   ///< retract won; suppress any later delivery
  bool Delivering = false; ///< a delivery callback claimed the outcome
  bool Driving = false;    ///< a rescan driver owns re-arm decisions
  bool Renudged = false;   ///< a nudge landed while a driver was active
};

/// One hash bin: a lock, the passive tuples (HP row), and the registered
/// blocked readers (HB row). Padded so neighboring bins' locks never
/// share a cache line. The waiter lanes follow the lock and the count so
/// that the lane mask and lanes 0-4 share the lock's line: a deposit on
/// one of the first five VPs finds its own lane on the line it locked.
struct alignas(64) Bin {
  SpinLock Lock;
  /// Racy occupancy gate: scans skip empty bins without locking them.
  /// Updated under Lock; the bin lock carries the happens-before for any
  /// reader that goes on to walk Items.
  std::atomic<std::size_t> EntryCount{0};
  HandoffList<TupleWaiter> Waiters;
  IntrusiveList<Entry, BinItemTag> Items;
};
static_assert(sizeof(Bin) == 192, "lock, count, 17 lanes and items");

/// Result of matching one entry against a template.
enum class EntryMatch {
  No,         ///< incompatible
  Yes,        ///< all fields matched and resolved
  NeedThread, ///< datum fields match; a thread field is unresolved
};

class HashedRep final : public TupleSpaceRepBase {
public:
  explicit HashedRep(PerVpTupleStats &Stats) : TupleSpaceRepBase(Stats) {}

  ~HashedRep() override {
    // Proxies ought to be retracted before the space dies (the shard
    // service retracts at connection teardown); drop stragglers
    // defensively so their entry pins are returned.
    for (auto &[Id, P] : Registry) {
      (void)Id;
      Bin &Home = binForTemplate(*P->Template);
      {
        std::lock_guard<SpinLock> Guard(Home.Lock);
        if (P->isLinked())
          Home.Waiters.finish(*P);
        P->Slot = EntryRef();
      }
      if (P->release())
        disposeProxy(P);
    }
    Registry.clear();
    auto Drain = [](Bin &B) {
      while (!B.Items.empty())
        B.Items.popFront().release(); // the Items reference
    };
    for (Bin &B : Bins)
      Drain(B);
    Drain(Wildcard);
  }

  /// Marks the datum fields of every referenced entry — resident in a
  /// bin, delivered into a waiter's slot, or pinned by a matcher — and
  /// every live proxy's template.
  void markRoots(const std::function<void(gc::Value)> &Mark) override {
    auto MarkDatums = [&](const Tuple &T) {
      for (const Field &F : T)
        if (F.isDatum())
          Mark(F.value());
    };
    {
      std::lock_guard<SpinLock> Guard(PoolLock);
      for (const auto &E : Pool)
        if (E->Refs.load(std::memory_order_relaxed) != 0)
          MarkDatums(E->Fields);
    }
    std::lock_guard<SpinLock> Reg(RegLock);
    for (ProxyReg &P : Proxies)
      MarkDatums(*P.Owned);
  }

  void put(Tuple T) override { deposit(makeEntry(std::move(T))); }

  std::optional<Match> tryMatch(const Tuple &Template,
                                bool Remove) override {
    ThreadRef Unresolved;
    return scanOnce(Template, Remove, /*AllowSteal=*/true, Unresolved);
  }

  std::optional<Match> matchUntil(const Tuple &Template, bool Remove,
                                  Deadline D) override {
    // Hot path: one unregistered scan.
    {
      ThreadRef Unresolved;
      if (auto M =
              scanOnce(Template, Remove, /*AllowSteal=*/true, Unresolved))
        return M;
      if (D.expired()) {
        STING_TRACE_EVENT(TimeoutFired, selfId(), 2);
        return std::nullopt;
      }
      if (Unresolved) {
        // Wait on the thread element itself; its completion may complete
        // our match. (Steals of delayed/scheduled threads happen inside
        // threadWaitFor.)
        noteBlocked(1);
        ThreadController::threadWaitFor(*Unresolved, D);
      }
    }

    // Contended path: register in the home bin, then re-scan. A deposit
    // racing the failed scan above either published before the
    // registration (the re-scan finds it) or after (its waiter walk finds
    // the registration and delivers/nudges) — the bin lock orders the
    // two, so no epoch counter is needed and no wakeup can be lost.
    Bin &Home = binForTemplate(Template);
    for (;;) {
      TupleWaiter W(Template, Remove);
      {
        std::lock_guard<SpinLock> Guard(Home.Lock);
        Home.Waiters.enqueue(W);
      }
      ThreadRef Unresolved;
      std::optional<Match> M;
      try {
        M = scanOnce(Template, Remove, /*AllowSteal=*/true, Unresolved);
      } catch (...) {
        settleUnwind(Home, W, Remove);
        throw;
      }
      if (M) {
        // Our own scan won; a delivery may have raced it. A take delivery
        // was never inserted — put it back, never strand it.
        if (EntryRef Extra = settle(Home, W); Extra && Remove)
          deposit(std::move(Extra));
        return M;
      }
      if (D.expired()) {
        // Scan-before-deadline ordering: a deposit racing the deadline
        // wins, either via the scan above or via a delivery in our slot.
        if (EntryRef Got = settle(Home, W))
          return matchFromEntry(Got, Template);
        STING_TRACE_EVENT(TimeoutFired, selfId(), 2);
        return std::nullopt;
      }
      if (Unresolved) {
        // Deregister before waiting on the thread: a delivery landing
        // while we sleep on an unrelated thread would sit invisible in
        // our slot. On timeout, loop back: the re-scan then falls through
        // to the expired() check above.
        if (EntryRef Got = settle(Home, W))
          return matchFromEntry(Got, Template);
        noteBlocked(1);
        ThreadController::threadWaitFor(*Unresolved, D);
        continue;
      }

      // Park until delivered, nudged or timed out (the HB row).
      noteBlocked(0);
      bool Renew = false;
      while (!Renew) {
        // Chaos: an extra control transfer right where the waiter decides
        // to sleep on its published registration.
        if (STING_CHAOS_FIRE(PreemptPoint)) {
          STING_TRACE_EVENT(ChaosInject, selfId(),
                            static_cast<std::uint32_t>(
                                chaos::Site::PreemptPoint));
          ThreadController::yieldProcessor();
        }
        try {
          ThreadController::parkCurrent(ParkClass::Kernel, this, D);
        } catch (...) {
          // Async terminate / raise unwinding out of the park: retract
          // the registration; a take delivery that raced the unwind goes
          // back into the space.
          settleUnwind(Home, W, Remove);
          throw;
        }
        HandoffState St = HandoffState::Armed;
        EntryRef Got;
        bool TimedOut = false;
        {
          std::lock_guard<SpinLock> Guard(Home.Lock);
          if (W.isLinked()) {
            // Still armed: nothing was handed to us. Only now may a
            // timeout be reported — delivery and timeout are arbitrated
            // under this lock, so the slot can never be left holding a
            // tuple nobody owns.
            if (D.expired()) {
              Home.Waiters.finish(W);
              TimedOut = true;
            }
            // else: spurious return; stay registered and re-park.
          } else {
            St = W.state();
            Got = std::move(W.Slot);
          }
        }
        if (TimedOut) {
          STING_TRACE_EVENT(TimeoutFired, selfId(), 2);
          return std::nullopt;
        }
        if (St == HandoffState::Delivered)
          return matchFromEntry(Got, Template);
        if (St == HandoffState::Nudged)
          Renew = true; // a potential match landed: re-register, re-scan
      }
    }
  }

  std::size_t size() const override {
    std::size_t N = Wildcard.EntryCount.load(std::memory_order_relaxed);
    for (const Bin &B : Bins)
      N += B.EntryCount.load(std::memory_order_relaxed);
    return N;
  }

  bool registerProxy(std::uint64_t Id, Tuple Template, bool Remove,
                     TupleSpace::ProxyDeliverFn Deliver) override {
    auto Owned = std::make_unique<Tuple>(std::move(Template));
    auto *P = new ProxyReg(std::move(Owned), Remove, Id, std::move(Deliver));
    Bin &Home = binForTemplate(*P->Template);
    bool Duplicate = false;
    {
      std::lock_guard<SpinLock> Reg(RegLock);
      // Live until disposed: markRoots keeps the template's datum fields
      // alive, since the remote waiter has no stack frame pinning them.
      Proxies.pushBack(*P);
      if (!Registry.emplace(Id, P).second) {
        Duplicate = true;
      } else {
        P->Driving = true; // the inline register-then-rescan below
        std::lock_guard<SpinLock> Guard(Home.Lock);
        Home.Waiters.enqueueDetached(*P);
      }
    }
    if (Duplicate) {
      disposeProxy(P);
      return false;
    }
    // Register-then-rescan, the same lost-wakeup-freedom argument as
    // matchUntil: a deposit racing this call either published before the
    // enqueue (the drive's scan finds it) or after (its waiter walk finds
    // the registration and delivers/nudges).
    P->retain(); // the driver's reference
    driveProxy(P);
    return true;
  }

  bool retractProxy(std::uint64_t Id) override {
    ProxyReg *P = nullptr;
    bool WasArmed = false;
    {
      std::lock_guard<SpinLock> Reg(RegLock);
      auto It = Registry.find(Id);
      if (It == Registry.end())
        return false;
      P = It->second;
      Bin &Home = binForTemplate(*P->Template);
      {
        std::lock_guard<SpinLock> Guard(Home.Lock);
        if (P->isLinked()) {
          // Still armed: the retract wins, exactly like a local waiter's
          // finish() on timeout — no delivery fired and none will.
          Home.Waiters.finish(*P);
          P->Canceled = true;
          WasArmed = true;
        } else if (P->state() == HandoffState::Delivered || P->Delivering) {
          // A completion owns the tuple; the caller will observe its
          // delivery (possibly after this retract reports wasArmed=false).
          WasArmed = false;
        } else {
          // Nudged (a rescan is scheduled/running) or momentarily
          // unlinked by a driver mid-decision: cancel before it delivers.
          P->Canceled = true;
          WasArmed = true;
        }
      }
      Registry.erase(It);
    }
    if (P->release())
      disposeProxy(P);
    return WasArmed;
  }

  /// Returns a recycled entry to the cache of the VP dropping the last
  /// reference (called from Entry::release). A full cache first spills
  /// half of itself to the shared free list.
  void recycle(Entry *E) {
    E->Fields.clear();
    EntryCache *C = localCache();
    if (!C) {
      std::lock_guard<SpinLock> Guard(PoolLock);
      E->NextFree = FreeList;
      FreeList = E;
      return;
    }
    std::lock_guard<SpinLock> Local(C->Lock);
    if (C->Count == TupleEntryCacheCap) {
      std::lock_guard<SpinLock> Guard(PoolLock);
      C->Count -= moveFree(C->Head, FreeList, TupleEntryCacheCap / 2);
    }
    E->NextFree = C->Head;
    C->Head = E;
    ++C->Count;
  }

private:
  static std::uint64_t selfId() {
    return currentThread() ? currentThread()->id() : 0;
  }

  void noteBlocked(std::uint32_t Payload) {
    Stats.local().Blocks.fetch_add(1, std::memory_order_relaxed);
    STING_TRACE_EVENT(TupleBlock, selfId(), Payload);
  }

  static std::size_t hashKey(std::size_t Arity, gc::Value V) {
    std::uint64_t H = gc::valueHash(V);
    H ^= Arity * 0x9e3779b97f4a7c15ull;
    return H % NumBins;
  }

  Bin &binForTuple(const Tuple &T) {
    if (T.empty() || !T.front().isDatum())
      return Wildcard;
    return Bins[hashKey(T.size(), T.front().value())];
  }

  /// The bin a reader registers in; concrete-first-field templates use
  /// their hash bin, others the wildcard bin (which every deposit scans).
  Bin &binForTemplate(const Tuple &T) {
    if (T.empty() || !T.front().isDatum())
      return Wildcard;
    return Bins[hashKey(T.size(), T.front().value())];
  }

  //--- Entry pool ---------------------------------------------------------

  /// A VP's private stack of recycled entries, so a steady-state put and
  /// take touch no lock shared with other VPs.
  struct alignas(64) EntryCache {
    /// Uncontended except when VPs of two machines share a slot.
    SpinLock Lock;
    Entry *Head = nullptr;
    std::size_t Count = 0; ///< at most TupleEntryCacheCap
  };

  static constexpr std::size_t NumEntryCaches = 16;

  /// The calling VP's cache; null off a VP (those use the shared list).
  EntryCache *localCache() {
    VirtualProcessor *Vp = currentVp();
    return Vp ? &Caches[Vp->index() % NumEntryCaches] : nullptr;
  }

  /// Moves up to \p N entries from free stack \p From onto \p To.
  /// \returns how many moved.
  static std::size_t moveFree(Entry *&From, Entry *&To, std::size_t N) {
    std::size_t Moved = 0;
    for (; From && Moved != N; ++Moved) {
      Entry *E = From;
      From = E->NextFree;
      E->NextFree = To;
      To = E;
    }
    return Moved;
  }

  /// Pops the shared free list or grows the pool; PoolLock held.
  Entry *takeShared() {
    if (Entry *E = FreeList) {
      FreeList = E->NextFree;
      return E;
    }
    Stats.local().PooledEntries.fetch_add(1, std::memory_order_relaxed);
    return Pool.emplace_back(std::make_unique<Entry>(*this)).get();
  }

  /// A recycled entry from the calling VP's cache, refilling an empty
  /// cache with half a cache's worth from the shared free list.
  Entry *allocEntry() {
    EntryCache *C = localCache();
    if (!C) {
      std::lock_guard<SpinLock> Guard(PoolLock);
      return takeShared();
    }
    std::lock_guard<SpinLock> Local(C->Lock);
    if (!C->Head) {
      std::lock_guard<SpinLock> Guard(PoolLock);
      C->Count = moveFree(FreeList, C->Head, TupleEntryCacheCap / 2);
      if (!C->Head)
        return takeShared();
    }
    Entry *E = C->Head;
    C->Head = E->NextFree;
    --C->Count;
    return E;
  }

  EntryRef makeEntry(Tuple T) {
    Entry *E = allocEntry();
    E->Refs.store(1, std::memory_order_relaxed);
    E->Fields = std::move(T);
    E->Flow = obs::currentFlowId();
    E->Removed = false;
    return EntryRef::adopt(E);
  }

  //--- Deposit ------------------------------------------------------------

  void deposit(EntryRef E) {
    Bin &B = binForTuple(E->Fields);
    bool AllDatum = true;
    for (const Field &F : E->Fields)
      if (!F.isDatum()) {
        AllDatum = false;
        break;
      }
    if (AllDatum)
      depositDirect(B, std::move(E));
    else
      depositPotential(B, std::move(E));
  }

  /// Collects the threads a deposit decides to wake under the bin locks;
  /// the unparks run after every lock is released. One deposit usually
  /// wakes at most one thread, so the overflow vector stays untouched.
  struct WakeSet {
    ThreadRef First;
    std::vector<ThreadRef> More;
    /// Proxy completions collected under the bin locks (each entry holds
    /// its own ProxyReg reference); run by completeProxies outside them.
    std::vector<ProxyReg *> DeliveredProxies;
    std::vector<ProxyReg *> NudgedProxies;

    void add(ThreadRef T) {
      if (!First)
        First = std::move(T);
      else
        More.push_back(std::move(T));
    }
    void fire() const {
      HandoffList<TupleWaiter>::wake(First);
      for (const ThreadRef &T : More)
        HandoffList<TupleWaiter>::wake(T);
    }
  };

  /// Does \p W's template accept an all-datum tuple \p Fields? This *is*
  /// the full match for datum tuples, so a delivery needs no re-check by
  /// the waiter. The entry is unpublished or freshly published under the
  /// caller's locks, so its fields are stable without taking its lock.
  static bool waiterAccepts(const TupleWaiter &W, const Tuple &Fields) {
    if (W.Arity != Fields.size())
      return false;
    const Tuple &T = *W.Template;
    for (std::size_t I = 0; I != T.size(); ++I)
      if (!T[I].isFormal() &&
          !gc::valueEqual(T[I].value(), Fields[I].value()))
        return false;
    return true;
  }

  /// Deposits an all-datum tuple. Under the home bin's lock (wildcard
  /// nested for cross-bin waiters — lock order is always bin, then
  /// wildcard), every compatible rd waiter receives a reference and the
  /// first compatible take waiter consumes the entry outright: no insert,
  /// no broadcast, exactly the matched threads wake.
  void depositDirect(Bin &B, EntryRef E) {
    WakeSet Wakes;
    std::uint32_t Deliveries = 0, Local = 0;
    bool Consumed = false;
    const unsigned Mine = HandoffList<TupleWaiter>::callerLane();

    auto Offer = [&](Bin &L) { // caller holds L.Lock
      L.Waiters.visit([&](TupleWaiter &W) {
        if (!waiterAccepts(W, E->Fields))
          return true;
        W.Slot = E;
        Local += W.lane() == Mine;
        if (W.IsProxy) {
          auto &P = static_cast<ProxyReg &>(W);
          P.retain(); // dropped by finishDeliveredProxy
          L.Waiters.deliver(W);
          Wakes.DeliveredProxies.push_back(&P);
        } else {
          Wakes.add(L.Waiters.deliver(W));
        }
        ++Deliveries;
        if (W.Remove) {
          Consumed = true;
          return false;
        }
        return true;
      });
    };

    {
      std::lock_guard<SpinLock> Guard(B.Lock);
      Offer(B);
      if (!Consumed && &B != &Wildcard && Wildcard.Waiters.hasWaiters()) {
        std::lock_guard<SpinLock> WGuard(Wildcard.Lock);
        Offer(Wildcard);
      }
      if (!Consumed)
        publishLocked(B, E);
    }
    chargeDeposit(Deliveries, Deliveries, Local);
    Wakes.fire();
    completeProxies(Wakes);
  }

  /// Deposits a tuple with live-thread fields. It cannot be fully matched
  /// under a spinlock (resolution may steal and run user code), so it is
  /// inserted first and prefilter-compatible waiters are *nudged* to
  /// re-scan — still no blanket broadcast, but more than one nudge when
  /// several waiters plausibly match, since a nudged waiter may fail
  /// resolution and park again.
  void depositPotential(Bin &B, EntryRef E) {
    WakeSet Wakes;
    std::uint32_t Nudges = 0;

    auto NudgeCompatible = [&](Bin &L) { // caller holds L.Lock
      L.Waiters.visit([&](TupleWaiter &W) {
        if (prefilter(*E, *W.Template)) {
          if (W.IsProxy) {
            auto &P = static_cast<ProxyReg &>(W);
            P.retain(); // dropped by scheduleProxyRescan or its driver
            L.Waiters.nudge(W);
            Wakes.NudgedProxies.push_back(&P);
          } else {
            Wakes.add(L.Waiters.nudge(W));
          }
          ++Nudges;
        }
        return true;
      });
    };

    {
      std::lock_guard<SpinLock> Guard(B.Lock);
      publishLocked(B, E);
      NudgeCompatible(B);
      if (&B != &Wildcard && Wildcard.Waiters.hasWaiters()) {
        std::lock_guard<SpinLock> WGuard(Wildcard.Lock);
        NudgeCompatible(Wildcard);
      }
    }
    if (&B == &Wildcard) {
      // A wildcard-bin tuple (live first field) can match any template.
      // The entry is already published, so the concrete bins can be
      // visited one at a time — never wildcard-then-bin, preserving the
      // bin→wildcard lock order.
      for (Bin &C : Bins) {
        if (!C.Waiters.hasWaiters())
          continue;
        std::lock_guard<SpinLock> Guard(C.Lock);
        NudgeCompatible(C);
      }
    }
    chargeDeposit(0, Nudges, 0);
    Wakes.fire();
    completeProxies(Wakes);
  }

  /// Every delivery is also a wake, so \p Deliveries <= \p Wakes; \p Local
  /// of the deliveries went to waiters in the depositor's own lane.
  void chargeDeposit(std::uint32_t Deliveries, std::uint32_t Wakes,
                     std::uint32_t Local) {
    if (!Wakes)
      return;
    TupleStatsSlot &S = Stats.local();
    if (Deliveries) {
      S.Handoffs.fetch_add(Deliveries, std::memory_order_relaxed);
      STING_TRACE_EVENT(TupleHandoff, selfId(), Deliveries);
    }
    S.Wakeups.fetch_add(Wakes, std::memory_order_relaxed);
    if (VirtualProcessor *Vp = currentVp()) {
      Vp->stats().TupleHandoffs.add(Deliveries);
      Vp->stats().TupleWakeups.add(Wakes);
      Vp->stats().TupleLocalHandoffs.add(Local);
    }
  }

  /// Caller holds B.Lock.
  void publishLocked(Bin &B, const EntryRef &E) {
    E->retain(); // the Items reference
    B.Items.pushBack(*E);
    B.EntryCount.fetch_add(1, std::memory_order_relaxed);
  }

  /// Caller holds B.Lock. Unpublishes \p E; \returns false if a competing
  /// taker already did.
  bool detachLocked(Bin &B, Entry &E) {
    {
      std::lock_guard<SpinLock> Guard(E.Lock);
      if (E.Removed)
        return false;
      E.Removed = true;
    }
    IntrusiveList<Entry, BinItemTag>::erase(E);
    B.EntryCount.fetch_sub(1, std::memory_order_relaxed);
    E.release(); // the Items reference; callers hold their own pin
    return true;
  }

  bool removeFromBin(Bin &B, Entry &E) {
    std::lock_guard<SpinLock> Guard(B.Lock);
    return detachLocked(B, E);
  }

  //--- Waiter-side registration maintenance -------------------------------

  /// Ends \p W's registration episode. \returns the entry a racing deposit
  /// delivered, if any — the caller owns it (return it or re-deposit it).
  EntryRef settle(Bin &Home, TupleWaiter &W) {
    std::lock_guard<SpinLock> Guard(Home.Lock);
    if (Home.Waiters.finish(W) == HandoffState::Delivered)
      return std::move(W.Slot);
    return EntryRef();
  }

  /// Unwind flavor: a take delivery was consumed from the space and must
  /// go back in; an rd delivery is only a reference and is dropped.
  void settleUnwind(Bin &Home, TupleWaiter &W, bool Remove) {
    if (EntryRef Got = settle(Home, W); Got && Remove)
      deposit(std::move(Got));
  }

  //--- Registration proxies (the multi-VM hook) ---------------------------

  void disposeProxy(ProxyReg *P) {
    {
      std::lock_guard<SpinLock> Reg(RegLock);
      IntrusiveList<ProxyReg, ProxyTag>::erase(*P);
    }
    delete P;
  }

  void releaseProxy(ProxyReg *P) {
    if (P->release())
      disposeProxy(P);
  }

  /// Drops the registry's reference to \p P if the map still holds it (a
  /// retract may have erased it first, in which case it also released).
  void eraseRegistration(ProxyReg *P) {
    bool Erased = false;
    {
      std::lock_guard<SpinLock> Guard(RegLock);
      auto It = Registry.find(P->Id);
      if (It != Registry.end() && It->second == P) {
        Registry.erase(It);
        Erased = true;
      }
    }
    if (Erased)
      releaseProxy(P);
  }

  /// Runs the proxy completions a deposit collected, outside every lock.
  void completeProxies(WakeSet &Wakes) {
    for (ProxyReg *P : Wakes.DeliveredProxies)
      finishDeliveredProxy(P);
    for (ProxyReg *P : Wakes.NudgedProxies)
      scheduleProxyRescan(P);
  }

  /// Completes a proxy registration the deposit path delivered to: fires
  /// the callback outside every lock, then drops the registry reference.
  /// Runs on the depositing thread. A driver that found its own match may
  /// have raced us for the outcome — the Delivering flag arbitrates, and
  /// the loser's consumed take goes back into the space.
  void finishDeliveredProxy(ProxyReg *P) {
    Bin &Home = binForTemplate(*P->Template);
    EntryRef Got;
    {
      std::lock_guard<SpinLock> Guard(Home.Lock);
      Got = std::move(P->Slot);
    }
    bool Own = false;
    if (Got) {
      std::lock_guard<SpinLock> Reg(RegLock);
      if (!P->Delivering) {
        P->Delivering = true;
        Own = true;
      }
    }
    if (Own) {
      Match M = matchFromEntry(Got, *P->Template);
      P->Deliver(P->Id, std::move(M));
      eraseRegistration(P);
    } else if (Got && P->Remove) {
      deposit(std::move(Got)); // a competing completion won; conserve
    }
    releaseProxy(P); // the deposit path's reference
  }

  /// A potential (live-thread) deposit nudged a proxy: the registration is
  /// unlinked and must be re-scanned on its behalf, since no local thread
  /// wakes to do it. Forks a driver so the deposit doesn't pay for the
  /// steals/resolution the rescan may perform.
  void scheduleProxyRescan(ProxyReg *P) {
    bool Fork = false;
    {
      std::lock_guard<SpinLock> Reg(RegLock);
      if (P->Canceled || P->Delivering) {
        // A retract or a delivery already owns the registration.
      } else if (P->Driving) {
        P->Renudged = true; // the active driver goes around once more
      } else {
        P->Driving = true;
        Fork = true;
      }
    }
    if (!Fork) {
      releaseProxy(P);
      return;
    }
    // The deposit path's reference transfers to the forked driver.
    ThreadController::forkThread([this, P]() -> AnyValue {
      driveProxy(P);
      return AnyValue();
    });
  }

  /// The proxy rescan driver: ensures the registration is armed, scans on
  /// its behalf, and either delivers through the callback, leaves the
  /// registration parked in its home bin, or bows out to a concurrent
  /// deliverer/retractor. At most one driver runs per registration
  /// (Driving); the caller set the flag and handed us a reference.
  void driveProxy(ProxyReg *P) {
    Bin &Home = binForTemplate(*P->Template);
    for (;;) {
      bool Exit = false;
      {
        std::lock_guard<SpinLock> Reg(RegLock);
        P->Renudged = false; // the scan below covers anything already here
        if (P->Canceled || P->Delivering) {
          P->Driving = false;
          Exit = true;
        } else {
          std::lock_guard<SpinLock> Guard(Home.Lock);
          if (!P->isLinked()) {
            if (P->state() == HandoffState::Delivered) {
              // The depositing thread owns the completion.
              P->Driving = false;
              Exit = true;
            } else {
              Home.Waiters.enqueueDetached(*P); // nudged: re-arm first
            }
          }
        }
      }
      if (Exit)
        break;

      ThreadRef Unresolved;
      std::optional<Match> M;
      try {
        M = scanOnce(*P->Template, P->Remove, /*AllowSteal=*/true,
                     Unresolved);
      } catch (...) {
        // A stolen tuple-thread failed. A local matcher rethrows to its
        // caller; a proxy has none on this machine, so leave the
        // registration armed — local matchers will surface the failure.
        M.reset();
      }
      if (M) {
        // Our scan won; a delivery may have raced it. A consumed take
        // delivery goes back in, never stranded (cf. matchUntil).
        if (EntryRef Extra = settle(Home, *P); Extra && P->Remove)
          deposit(std::move(Extra));
        bool Suppressed = false;
        {
          std::lock_guard<SpinLock> Reg(RegLock);
          if (P->Canceled || P->Delivering)
            Suppressed = true;
          else
            P->Delivering = true; // terminal: no new driver re-arms it
          P->Driving = false;
        }
        if (!Suppressed) {
          P->Deliver(P->Id, std::move(*M));
          eraseRegistration(P);
        } else if (P->Remove) {
          // A retract was reported as armed (or a deposit delivery owns
          // the outcome); conservation: rebuild the consumed tuple.
          Tuple T;
          T.reserve(M->Fields.size());
          for (gc::Value V : M->Fields)
            T.push_back(Field(V));
          deposit(makeEntry(std::move(T)));
        }
        break;
      }

      // Nothing matched. A completion may have raced the scan; only a
      // nudge warrants another pass (Delivered belongs to the depositor,
      // still-linked means stay armed and exit).
      bool Renew = false;
      {
        std::lock_guard<SpinLock> Guard(Home.Lock);
        if (!P->isLinked() && P->state() == HandoffState::Nudged)
          Renew = true;
      }
      if (Renew)
        continue;
      bool Again = false;
      {
        std::lock_guard<SpinLock> Reg(RegLock);
        if (!P->Canceled && P->Renudged)
          Again = true; // a nudge landed after our last look
        else
          P->Driving = false; // leave the registration armed in its bin
      }
      if (!Again)
        break;
    }
    releaseProxy(P);
  }

  //--- Scanning -----------------------------------------------------------

  /// Builds the match from an all-datum entry (a Yes scan hit or a
  /// delivered slot); no lock needed, the fields can no longer change.
  static Match matchFromEntry(const EntryRef &E, const Tuple &Template) {
    Match M;
    M.Fields.assign(Template.size());
    for (std::size_t I = 0; I != Template.size(); ++I)
      M.Fields[I] = E->Fields[I].value();
    M.bindFormals(Template);
    M.Flow = E->Flow;
    return M;
  }

  /// One pass over the candidate bins. On success returns the match; on
  /// failure sets \p Unresolved to an evaluating thread field worth
  /// waiting on (if any).
  std::optional<Match> scanOnce(const Tuple &Template, bool Remove,
                                bool AllowSteal, ThreadRef &Unresolved) {
    if (!Template.empty() && Template.front().isDatum()) {
      Bin &B = Bins[hashKey(Template.size(), Template.front().value())];
      if (auto M = scanBin(B, Template, Remove, AllowSteal, Unresolved))
        return M;
      return scanBin(Wildcard, Template, Remove, AllowSteal, Unresolved);
    }
    // Formal first field: full scan (the slow path the paper's hashing is
    // designed to avoid); the occupancy gates make it 65 relaxed loads
    // when the space is empty.
    for (Bin &B : Bins)
      if (auto M = scanBin(B, Template, Remove, AllowSteal, Unresolved))
        return M;
    return scanBin(Wildcard, Template, Remove, AllowSteal, Unresolved);
  }

  std::optional<Match> scanBin(Bin &B, const Tuple &Template, bool Remove,
                               bool AllowSteal, ThreadRef &Unresolved) {
    if (B.EntryCount.load(std::memory_order_relaxed) == 0)
      return std::nullopt;

    // Walk under the bin lock; all-datum matches resolve right here and
    // only a live-thread candidate is pinned and resolved outside the
    // lock (stealing runs arbitrary user code). No candidate vector: the
    // common scan allocates nothing.
    std::vector<const Entry *> Waiting; // resolution already failed this pass
    for (;;) {
      EntryRef Ready, Candidate;
      {
        std::lock_guard<SpinLock> Guard(B.Lock);
        for (Entry &E : B.Items) {
          if (!Waiting.empty() &&
              std::find(Waiting.begin(), Waiting.end(), &E) != Waiting.end())
            continue;
          EntryMatch R = matchLocked(E, Template);
          if (R == EntryMatch::No)
            continue;
          if (R == EntryMatch::NeedThread) {
            if (!Candidate)
              Candidate = EntryRef(&E);
            continue;
          }
          Ready = EntryRef(&E);
          if (Remove)
            detachLocked(B, E); // cannot fail: we held the lock throughout
          break;
        }
      }
      if (Ready)
        return matchFromEntry(Ready, Template);
      if (!Candidate)
        return std::nullopt;

      Match M;
      EntryMatch R = resolveEntry(*Candidate, Template, AllowSteal, M.Fields);
      if (R == EntryMatch::Yes) {
        if (Remove && !removeFromBin(B, *Candidate))
          continue; // a competing taker won; re-walk the bin
        M.bindFormals(Template);
        M.Flow = Candidate->Flow;
        return M;
      }
      if (R == EntryMatch::NeedThread) {
        if (!Unresolved)
          Unresolved = firstUnresolvedThread(*Candidate);
        Waiting.push_back(Candidate.get());
        continue; // other candidates may still resolve
      }
      // No: resolution exposed a mismatch (or the entry was removed); the
      // re-walk now skips it via matchLocked.
    }
  }

  /// Matches one entry under the bin lock: arity, removal, and per-field
  /// compatibility. Yes means every field is a datum and matched — the
  /// full match, usable without further resolution.
  EntryMatch matchLocked(Entry &E, const Tuple &Template) {
    if (E.Fields.size() != Template.size())
      return EntryMatch::No;
    std::lock_guard<SpinLock> Guard(E.Lock);
    if (E.Removed)
      return EntryMatch::No;
    EntryMatch R = EntryMatch::Yes;
    for (std::size_t I = 0; I != Template.size(); ++I) {
      const Field &TF = Template[I];
      const Field &EF = E.Fields[I];
      if (EF.isLiveThread()) {
        R = EntryMatch::NeedThread; // formal or datum: need the value
        continue;
      }
      if (!TF.isFormal() && !gc::valueEqual(TF.value(), EF.value()))
        return EntryMatch::No;
    }
    return R;
  }

  /// Cheap compatibility check (arity + datum-datum positions) used to
  /// pick which waiters a potential deposit nudges.
  bool prefilter(Entry &E, const Tuple &Template) {
    if (E.Fields.size() != Template.size())
      return false;
    std::lock_guard<SpinLock> Guard(E.Lock);
    if (E.Removed)
      return false;
    for (std::size_t I = 0; I != Template.size(); ++I) {
      const Field &TF = Template[I];
      const Field &EF = E.Fields[I];
      if (TF.isFormal() || EF.isLiveThread())
        continue;
      if (!gc::valueEqual(TF.value(), EF.value()))
        return false;
    }
    return true;
  }

  /// Full resolution outside the bin lock. Fills \p Values on success.
  EntryMatch resolveEntry(Entry &E, const Tuple &Template, bool AllowSteal,
                          MatchValues &Values) {
    Values.assign(Template.size());
    for (std::size_t I = 0; I != Template.size(); ++I) {
      gc::Value V;
      ThreadRef Pending;
      {
        std::lock_guard<SpinLock> Guard(E.Lock);
        if (E.Removed)
          return EntryMatch::No;
        const Field &EF = E.Fields[I];
        if (EF.isDatum())
          V = EF.value();
        else
          Pending = EF.thread();
      }
      if (Pending) {
        // Resolve the live thread outside every lock: stealing runs the
        // thunk right here on our TCB (paper 4.2's key integration).
        Thread &T = *Pending;
        if (!T.isDetermined()) {
          if (!AllowSteal)
            return EntryMatch::NeedThread;
          if (!ThreadController::trySteal(T) && !T.isDetermined())
            return EntryMatch::NeedThread; // evaluating elsewhere
        }
        T.rethrowIfFailed();
        V = T.result().as<gc::Value>();
        E.resolveField(I, V);
      }
      const Field &TF = Template[I];
      if (!TF.isFormal() && !gc::valueEqual(TF.value(), V))
        return EntryMatch::No;
      Values[I] = V;
    }
    return EntryMatch::Yes;
  }

  ThreadRef firstUnresolvedThread(Entry &E) {
    std::lock_guard<SpinLock> Guard(E.Lock);
    for (const Field &F : E.Fields)
      if (ThreadRef T = F.thread(); T && !T->isDetermined())
        return T;
    return ThreadRef();
  }

  Bin Bins[NumBins];
  Bin Wildcard;
  /// Every entry ever made, and the shared freelist threaded through
  /// recycled ones the VP caches spilled: recycled nodes keep their
  /// storage, so a steady-state put allocates nothing for the entry
  /// itself. Lock order: a cache's lock, then PoolLock.
  SpinLock PoolLock;
  std::vector<std::unique_ptr<Entry>> Pool;
  Entry *FreeList = nullptr;
  EntryCache Caches[NumEntryCaches];
  /// Proxy registrations by id. Lock order: RegLock, then a bin lock —
  /// the deposit path (bin lock only) never takes RegLock, so the nesting
  /// is acyclic.
  SpinLock RegLock;
  std::unordered_map<std::uint64_t, ProxyReg *> Registry;
  /// Every registration not yet disposed, in or out of Registry.
  IntrusiveList<ProxyReg, ProxyTag> Proxies;
};

void Entry::release() {
  if (Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
    Owner.recycle(this);
}

} // namespace

std::unique_ptr<detail::TupleSpaceRepBase>
detail::makeHashedRep(PerVpTupleStats &Stats) {
  return std::make_unique<HashedRep>(Stats);
}

//===----------------------------------------------------------------------===//
// Facade
//===----------------------------------------------------------------------===//

namespace {

/// A successful match continues the depositor's causal flow: the matcher
/// adopts it for its subsequent work (and trace records). Deposits from
/// flow-less contexts leave the matcher's flow untouched.
void adoptMatchFlow(const Match &M) {
  if (!M.Flow)
    return;
  obs::setCurrentFlowId(M.Flow);
  if (Thread *T = currentThread())
    T->setFlowId(M.Flow);
}

} // namespace

TupleStatsSlot &PerVpTupleStats::local() {
  VirtualProcessor *Vp = currentVp();
  return Slots[Vp ? Vp->index() % NumVpSlots : NumVpSlots];
}

TupleSpace::TupleSpace(TupleSpaceRep Rep, gc::GlobalHeap &Heap)
    : Rep(Rep), Heap(&Heap) {
  if (Rep == TupleSpaceRep::Hashed)
    Impl = detail::makeHashedRep(Stats);
  else
    Impl = detail::makeSpecializedRep(Rep, Stats);
  Heap.addRootSource(Impl.get());
}

TupleSpace::~TupleSpace() { Heap->removeRootSource(Impl.get()); }

TupleSpaceRef TupleSpace::create(TupleSpaceRep Rep, gc::GlobalHeap *Heap) {
  return TupleSpaceRef::adopt(
      new TupleSpace(Rep, Heap ? *Heap : sharedHeap()));
}

TupleSpaceRef TupleSpace::create(const TupleOpsProfile &Profile,
                                 gc::GlobalHeap *Heap) {
  return create(chooseRepresentation(Profile), Heap);
}

void TupleSpace::prepare(Tuple &T) {
  // Pass 1: root every young datum slot for the duration. Escaping one
  // field scavenges the caller's young heap, and a scavenge roots only
  // handle scopes / external roots / the remembered set — an unrooted
  // sibling young value would be left behind in from-space (dangling once
  // the space is reused). Pending text/blob fields carry plain bytes, not
  // heap values, so they need no rooting.
  gc::LocalHeap *Mutator = nullptr;
  std::vector<gc::Value *> Rooted;
  for (Field &F : T) {
    if (!F.isDatum() || F.hasPendingText() || F.hasPendingBlob())
      continue;
    gc::Value V = F.value();
    if (V.isObject() && !V.asObject()->isInOld()) {
      STING_CHECK(onStingThread(),
                  "young tuple values require a sting thread to escape");
      if (!Mutator)
        Mutator = &mutatorHeap();
      Mutator->addRoot(F.valueSlot());
      Rooted.push_back(F.valueSlot());
    }
  }

  // Pass 2: resolve. Pending bytes go straight to the shared heap (no
  // young object ever exists for them — the reason net/Wire defers blob
  // allocation here); young values are promoted via escape, with the
  // remaining fields' slots forwarded by the roots above.
  for (Field &F : T) {
    if (!F.isDatum())
      continue;
    if (F.hasPendingText()) {
      F.resolveText(Heap->intern(F.pendingText()));
      continue;
    }
    if (F.hasPendingBlob()) {
      F.resolveBlob(Heap->makeStringShared(F.pendingBlob()));
      continue;
    }
    gc::Value V = F.value();
    if (V.isObject() && !V.asObject()->isInOld())
      F.setValue(Mutator->escape(V));
  }

  for (std::size_t I = Rooted.size(); I != 0; --I)
    Mutator->removeRoot(Rooted[I - 1]);
}

void TupleSpace::put(Tuple T) {
  for (const Field &F : T)
    STING_CHECK(!F.isFormal() && !F.isThunk(),
                "put tuple may not contain formals or thunks");
  prepare(T);
  Stats.local().Puts.fetch_add(1, std::memory_order_relaxed);
  STING_TRACE_EVENT(TuplePut, currentThread() ? currentThread()->id() : 0,
                    static_cast<std::uint32_t>(T.size()));
  Impl->put(std::move(T));
}

std::vector<ThreadRef> TupleSpace::spawn(Tuple T) {
  STING_CHECK(Rep == TupleSpaceRep::Hashed,
              "spawn requires the general representation");
  Stats.local().Spawns.fetch_add(1, std::memory_order_relaxed);
  std::vector<ThreadRef> Forked;
  for (Field &F : T) {
    STING_CHECK(!F.isFormal(), "spawn tuple may not contain formals");
    if (!F.isThunk())
      continue;
    ThreadRef Th = ThreadController::forkThread(
        [Code = F.takeThunk()]() mutable -> AnyValue {
          gc::Value V = Code();
          // The value becomes visible to arbitrary matchers: escape it.
          if (V.isObject() && !V.asObject()->isInOld())
            V = mutatorHeap().escape(V);
          return AnyValue(V);
        });
    F.becomeLiveThread(Th);
    Forked.push_back(std::move(Th));
  }
  prepare(T);
  Impl->put(std::move(T));
  return Forked;
}

Match TupleSpace::read(Tuple Template) {
  prepare(Template);
  Stats.local().Reads.fetch_add(1, std::memory_order_relaxed);
  STING_TRACE_EVENT(TupleRead, currentThread() ? currentThread()->id() : 0,
                    static_cast<std::uint32_t>(Template.size()));
  Match M = Impl->match(std::move(Template), /*Remove=*/false);
  adoptMatchFlow(M);
  return M;
}

Match TupleSpace::take(Tuple Template) {
  prepare(Template);
  Stats.local().Takes.fetch_add(1, std::memory_order_relaxed);
  STING_TRACE_EVENT(TupleTake, currentThread() ? currentThread()->id() : 0,
                    static_cast<std::uint32_t>(Template.size()));
  Match M = Impl->match(std::move(Template), /*Remove=*/true);
  adoptMatchFlow(M);
  return M;
}

std::optional<Match> TupleSpace::readUntil(Tuple Template, Deadline D) {
  prepare(Template);
  Stats.local().Reads.fetch_add(1, std::memory_order_relaxed);
  STING_TRACE_EVENT(TupleRead, currentThread() ? currentThread()->id() : 0,
                    static_cast<std::uint32_t>(Template.size()));
  auto M = Impl->matchUntil(Template, /*Remove=*/false, D);
  if (M)
    adoptMatchFlow(*M);
  return M;
}

std::optional<Match> TupleSpace::takeUntil(Tuple Template, Deadline D) {
  prepare(Template);
  Stats.local().Takes.fetch_add(1, std::memory_order_relaxed);
  STING_TRACE_EVENT(TupleTake, currentThread() ? currentThread()->id() : 0,
                    static_cast<std::uint32_t>(Template.size()));
  auto M = Impl->matchUntil(Template, /*Remove=*/true, D);
  if (M)
    adoptMatchFlow(*M);
  return M;
}

std::optional<Match> TupleSpace::tryRead(Tuple Template) {
  prepare(Template);
  // Attempts are counted like the blocking variants (see TupleSpaceStats).
  Stats.local().Reads.fetch_add(1, std::memory_order_relaxed);
  auto M = Impl->tryMatch(std::move(Template), /*Remove=*/false);
  if (M)
    adoptMatchFlow(*M);
  return M;
}

std::optional<Match> TupleSpace::tryTake(Tuple Template) {
  prepare(Template);
  Stats.local().Takes.fetch_add(1, std::memory_order_relaxed);
  auto M = Impl->tryMatch(std::move(Template), /*Remove=*/true);
  if (M)
    adoptMatchFlow(*M);
  return M;
}

std::size_t TupleSpace::size() const { return Impl->size(); }

bool TupleSpace::registerProxy(std::uint64_t Id, Tuple Template, bool Remove,
                               ProxyDeliverFn Deliver) {
  for (const Field &F : Template)
    STING_CHECK(!F.isThunk(), "proxy template may not contain thunks");
  prepare(Template);
  TupleStatsSlot &S = Stats.local();
  (Remove ? S.Takes : S.Reads).fetch_add(1, std::memory_order_relaxed);
  return Impl->registerProxy(Id, std::move(Template), Remove,
                             std::move(Deliver));
}

bool TupleSpace::retractProxy(std::uint64_t Id) {
  return Impl->retractProxy(Id);
}

} // namespace sting
