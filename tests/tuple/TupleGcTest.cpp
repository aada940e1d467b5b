//===- tests/tuple/TupleGcTest.cpp - Tuple values across full collections ----===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// A tuple space keeps its values alive across a full collection of the
// heap it lives in, whatever state a tuple is in: resident in storage,
// handed to a parked taker that has not run yet, or held as the template
// of a registration proxy. Every representation is covered. Each test
// owns its GlobalHeap, so collectFull({}) sees no other mutators, and
// allocates over the swept space afterwards so that a value the space
// failed to mark is overwritten, not merely unmarked.
//
//===----------------------------------------------------------------------===//

#include "tuple/TupleSpace.h"

#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "gc/GlobalHeap.h"
#include "gc/Object.h"
#include "gtest/gtest.h"

#include <atomic>
#include <string>
#include <vector>

namespace {

using namespace sting;
using TC = ThreadController;

/// The heap values one test stores: a string, and a vector holding a
/// second string, so marking must also trace through a stored value.
struct Payload {
  gc::Value Str;
  gc::Value Vec;
};

Payload makePayload(gc::GlobalHeap &H) {
  gc::Value Vec = H.makeVectorShared(3, gc::Value::fixnum(7));
  Vec.asObject()->setSlotRaw(1, H.makeStringShared("held by the vector"));
  return {H.makeStringShared("a tuple's string field"), Vec};
}

/// The tuples \p Rep stores \p P in; tuple I is taken back by
/// templateFor(Rep, I).
std::vector<Tuple> tuplesFor(TupleSpaceRep Rep, const Payload &P) {
  std::vector<Tuple> Ts;
  switch (Rep) {
  case TupleSpaceRep::Hashed:
    Ts.push_back(makeTuple(P.Str, P.Vec, "tag"));
    break;
  case TupleSpaceRep::SharedVariable: // one cell: the vector and its string
    Ts.push_back(makeTuple(P.Vec));
    break;
  case TupleSpaceRep::Vector:
    Ts.push_back(makeTuple(0, P.Str));
    Ts.push_back(makeTuple(1, P.Vec));
    break;
  case TupleSpaceRep::Queue:
  case TupleSpaceRep::Bag:
  case TupleSpaceRep::Set:
  case TupleSpaceRep::Semaphore:
    Ts.push_back(makeTuple(P.Str));
    Ts.push_back(makeTuple(P.Vec));
    break;
  }
  return Ts;
}

Tuple templateFor(TupleSpaceRep Rep, std::size_t I) {
  switch (Rep) {
  case TupleSpaceRep::Hashed:
    return makeTuple(formal(0), formal(1), "tag");
  case TupleSpaceRep::Vector:
    return makeTuple(static_cast<int>(I), formal(0));
  default:
    return makeTuple(formal(0));
  }
}

/// What the takes bind, in tuple order, built from fresh copies: equal
/// only if the stored values survived intact. A semaphore stores counts,
/// so its takes bind tokens.
std::vector<gc::Value> expectedFor(TupleSpaceRep Rep, gc::GlobalHeap &H) {
  Payload Fresh = makePayload(H);
  switch (Rep) {
  case TupleSpaceRep::SharedVariable:
    return {Fresh.Vec};
  case TupleSpaceRep::Semaphore:
    return {gc::Value::fixnum(1), gc::Value::fixnum(1)};
  default:
    return {Fresh.Str, Fresh.Vec};
  }
}

/// Collects \p H with no mutators, checks the collection swept the
/// unrooted decoy (so survival is not vacuous), then fills the freed
/// space with same-sized objects of other contents.
void collectAndChurn(gc::GlobalHeap &H) {
  makePayload(H); // unrooted decoy
  H.collectFull({});
  EXPECT_GT(H.stats().BytesSwept, 0u);
  for (int I = 0; I != 256; ++I) {
    H.makeStringShared(std::string(22, '#'));
    H.makeVectorShared(3, gc::Value::fixnum(-1));
  }
}

void expectValues(const std::vector<gc::Value> &Got,
                  const std::vector<gc::Value> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (std::size_t I = 0; I != Got.size(); ++I)
    EXPECT_TRUE(gc::valueEqual(Got[I], Want[I])) << "value " << I;
}

class TupleGcTest : public ::testing::TestWithParam<TupleSpaceRep> {};

TEST_P(TupleGcTest, ResidentValuesSurviveFullCollection) {
  const TupleSpaceRep Rep = GetParam();
  gc::GlobalHeap H;
  TupleSpaceRef Ts = TupleSpace::create(Rep, &H);
  std::vector<Tuple> Puts = tuplesFor(Rep, makePayload(H));
  const std::size_t N = Puts.size();
  for (Tuple &T : Puts)
    Ts->put(std::move(T));

  collectAndChurn(H);

  std::vector<gc::Value> Got;
  for (std::size_t I = 0; I != N; ++I) {
    auto M = Ts->tryTake(templateFor(Rep, I));
    ASSERT_TRUE(M.has_value()) << "tuple " << I;
    Got.insert(Got.end(), M->Bindings.begin(), M->Bindings.end());
  }
  expectValues(Got, expectedFor(Rep, H));
  EXPECT_EQ(Ts->size(), 0u);
}

TEST_P(TupleGcTest, ValuesHandedToParkedTakersSurviveFullCollection) {
  const TupleSpaceRep Rep = GetParam();
  gc::GlobalHeap H;
  // One VP: a woken taker cannot run until this thread lets it, so the
  // collection below sees every delivery still waiting in its slot.
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  Vm.run([&]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create(Rep, &H);
    std::vector<Tuple> Puts = tuplesFor(Rep, makePayload(H));
    const std::size_t N = Puts.size();
    std::vector<std::vector<gc::Value>> Got(N);
    std::vector<ThreadRef> Takers;
    for (std::size_t I = 0; I != N; ++I) {
      const std::uint64_t Parked = Vm.aggregateStats().Blocks;
      Takers.push_back(TC::forkThread([&, I]() -> AnyValue {
        Match M = Ts->take(templateFor(Rep, I));
        Got[I].assign(M.Bindings.begin(), M.Bindings.end());
        return AnyValue();
      }));
      while (Vm.aggregateStats().Blocks == Parked)
        TC::yieldProcessor(); // until taker I parks, in order
    }
    for (Tuple &T : Puts)
      Ts->put(std::move(T));

    collectAndChurn(H);

    std::vector<gc::Value> All;
    for (std::size_t I = 0; I != N; ++I) {
      TC::threadWait(*Takers[I]);
      All.insert(All.end(), Got[I].begin(), Got[I].end());
    }
    expectValues(All, expectedFor(Rep, H));
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue();
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllReps, TupleGcTest,
    ::testing::Values(TupleSpaceRep::Hashed, TupleSpaceRep::Queue,
                      TupleSpaceRep::Bag, TupleSpaceRep::Set,
                      TupleSpaceRep::SharedVariable, TupleSpaceRep::Semaphore,
                      TupleSpaceRep::Vector),
    [](const ::testing::TestParamInfo<TupleSpaceRep> &Info) {
      std::string Name = tupleSpaceRepName(Info.param);
      std::erase(Name, '-');
      return Name;
    });

TEST(ProxyTupleGcTest, TemplateSurvivesFullCollection) {
  // Only the hashed representation supports proxies.
  gc::GlobalHeap H;
  TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Hashed, &H);
  std::atomic<int> Deliveries{0};
  gc::Value Bound;
  ASSERT_TRUE(Ts->registerProxy(
      1, makeTuple(makePayload(H).Str, formal(0)), /*Remove=*/true,
      [&](std::uint64_t, Match M) {
        Bound = M.binding(0);
        Deliveries.fetch_add(1);
      }));

  collectAndChurn(H);

  // The template's string field compares by content: a fresh equal string
  // matches only if the registered one survived.
  Ts->put(makeTuple(makePayload(H).Str, 42));
  EXPECT_EQ(Deliveries.load(), 1);
  EXPECT_EQ(Bound, gc::Value::fixnum(42));
  EXPECT_EQ(Ts->size(), 0u);
  EXPECT_FALSE(Ts->retractProxy(1));
}

} // namespace
