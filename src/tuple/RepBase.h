//===- tuple/RepBase.h - Tuple-space representation interface ----*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private interface implemented by each tuple-space representation. The
/// facade (TupleSpace) normalizes tuples (interning, escaping) before
/// calling in; representations only see resolved gc values, live threads
/// and formals. Each representation is the GC root source for the values
/// it stores (registered once by the facade), so storing or dropping a
/// tuple never touches the heap's root registry.
///
//===----------------------------------------------------------------------===//

#ifndef STING_TUPLE_REPBASE_H
#define STING_TUPLE_REPBASE_H

#include "gc/GlobalHeap.h"
#include "tuple/Tuple.h"
#include "tuple/TupleSpace.h"

#include <initializer_list>
#include <optional>

namespace sting {
namespace detail {

class TupleSpaceRepBase : public gc::RootSource {
public:
  /// \p Stats outlives the representation (it is a member of the owning
  /// TupleSpace, declared before Impl); representations charge Blocks,
  /// Handoffs, Wakeups and PooledEntries to the calling VP's slot.
  explicit TupleSpaceRepBase(PerVpTupleStats &Stats) : Stats(Stats) {}
  virtual ~TupleSpaceRepBase() = default;

  virtual void put(Tuple T) = 0;
  /// Blocking match bounded by \p D; nullopt only on timeout. A deposit
  /// racing the deadline wins: implementations re-scan (or consume a
  /// pending handoff delivery) before reporting failure.
  virtual std::optional<Match> matchUntil(const Tuple &Template, bool Remove,
                                          Deadline D) = 0;
  virtual std::optional<Match> tryMatch(const Tuple &Template,
                                        bool Remove) = 0;
  virtual std::size_t size() const = 0;

  /// Registration-proxy hook (see TupleSpace::registerProxy). Only the
  /// hashed representation implements it; specialized representations
  /// report unsupported and the caller falls back to a blocking thread.
  virtual bool registerProxy(std::uint64_t /*Id*/, Tuple /*Template*/,
                             bool /*Remove*/,
                             TupleSpace::ProxyDeliverFn /*Deliver*/) {
    return false;
  }
  /// \returns true iff the registration was retracted while still armed.
  virtual bool retractProxy(std::uint64_t /*Id*/) { return false; }

  /// Unbounded match: a never deadline cannot time out.
  Match match(const Tuple &Template, bool Remove) {
    auto M = matchUntil(Template, Remove, Deadline::never());
    STING_CHECK(M, "unbounded tuple match timed out");
    return std::move(*M);
  }

protected:
  PerVpTupleStats &Stats;
};

/// The general two-hash-table representation (TupleSpace.cpp).
std::unique_ptr<TupleSpaceRepBase> makeHashedRep(PerVpTupleStats &Stats);

/// Specialized representations (Specialize.cpp).
std::unique_ptr<TupleSpaceRepBase> makeSpecializedRep(TupleSpaceRep Rep,
                                                      PerVpTupleStats &Stats);

/// Shared helper: a Match of \p Values bound by \p Template's formals.
Match buildMatch(std::initializer_list<gc::Value> Values,
                 const Tuple &Template);

} // namespace detail
} // namespace sting

#endif // STING_TUPLE_REPBASE_H
