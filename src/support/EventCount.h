//===- support/EventCount.h - Waiter-counting event count -------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An event count whose notify side is a single atomic load when nobody
/// waits — the idle protocol of the lock-free scheduling fast path
/// (DESIGN.md section 8). A notify() that always took the mutex would make
/// every enqueue on a busy machine pay a lock round-trip for a wakeup
/// nobody needs, so EventCount folds a waiter count into the same atomic
/// word as the epoch:
///
///   waiter:                          notifier:
///     Key K = Ec.prepareWait();        publish work (release or stronger)
///     if (workAvailable())             Ec.notifyAll();  // one seq_cst load
///       Ec.cancelWait();               //   when no waiter is registered
///     else
///       Ec.commitWait(K);
///
/// Correctness argument (the standard eventcount handshake): prepareWait
/// is a seq_cst RMW on State and the notifier's first read of State is
/// seq_cst, so the two are totally ordered. If the notifier's load comes
/// first it observes zero waiters — but then the waiter's RMW (and its
/// subsequent re-check of the wait condition) follows the notifier's
/// publication in the seq_cst order, so the re-check sees the work and the
/// waiter cancels. If the waiter's RMW comes first, the notifier sees a
/// non-zero waiter count, takes the mutex, bumps the epoch and broadcasts;
/// commitWait re-validates the epoch under the same mutex, so the wakeup
/// cannot be lost between prepare and sleep. Seq_cst operations (not
/// standalone fences) are used deliberately: ThreadSanitizer models atomic
/// operations precisely but approximates fences.
///
//===----------------------------------------------------------------------===//

#ifndef STING_SUPPORT_EVENTCOUNT_H
#define STING_SUPPORT_EVENTCOUNT_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace sting {

/// A monotone event count with a waiter-count-gated notify fast path.
/// State packs (epoch << 32) | waiters so one atomic read answers both
/// "did anything happen" and "is anyone asleep".
class EventCount {
public:
  using Key = std::uint32_t;

  /// Registers this thread as a prospective waiter and \returns the epoch
  /// to pass to commitWait. The caller must re-check its wait condition
  /// after this call and then either cancelWait() or commitWait(K).
  Key prepareWait() {
    std::uint64_t Prev = State.fetch_add(1, std::memory_order_seq_cst);
    return static_cast<Key>(Prev >> EpochShift);
  }

  /// Abandons a prepared wait (the re-check found work).
  void cancelWait() { State.fetch_sub(1, std::memory_order_seq_cst); }

  /// Sleeps until the epoch advances past \p K, or until \p TimeoutNanos
  /// elapses (0 = no timeout). Consumes the prepareWait registration.
  void commitWait(Key K, std::uint64_t TimeoutNanos = 0) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      auto Pred = [&] {
        return static_cast<Key>(State.load(std::memory_order_relaxed) >>
                                EpochShift) != K;
      };
      if (TimeoutNanos == 0)
        Cv.wait(Lock, Pred);
      else
        Cv.wait_for(Lock, std::chrono::nanoseconds(TimeoutNanos), Pred);
    }
    State.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Wakes every registered waiter. One uncontended seq_cst load when no
  /// waiter is registered — the enqueue-path common case.
  void notifyAll() {
    if ((State.load(std::memory_order_seq_cst) & WaiterMask) == 0)
      return;
    {
      // The epoch bump must be ordered with commitWait's predicate check,
      // which runs under the same mutex; otherwise a waiter could check,
      // miss the bump, and sleep through the broadcast.
      std::lock_guard<std::mutex> Lock(Mu);
      State.fetch_add(std::uint64_t(1) << EpochShift,
                      std::memory_order_seq_cst);
    }
    Cv.notify_all();
  }

  /// Registered waiters right now (diagnostics; racy by nature).
  std::uint32_t waiters() const {
    return static_cast<std::uint32_t>(
        State.load(std::memory_order_relaxed) & WaiterMask);
  }

private:
  static constexpr unsigned EpochShift = 32;
  static constexpr std::uint64_t WaiterMask = 0xffffffffull;

  std::atomic<std::uint64_t> State{0};
  std::mutex Mu;
  std::condition_variable Cv;
};

} // namespace sting

#endif // STING_SUPPORT_EVENTCOUNT_H
