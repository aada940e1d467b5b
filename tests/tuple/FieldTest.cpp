//===- tests/tuple/FieldTest.cpp - Field ownership across every kind ---------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// A Field is a 24-byte tagged union (tuple/Tuple.h): its one payload is a
// gc::Value, an owned thread reference, inline pending bytes, or a box
// (long pending bytes, a spawn thunk). Every kind is built, moved, moved
// over every other kind, resolved where the kind allows, and destroyed; a
// live thread's reference count must come back to where it started, and
// the ASan job turns any leaked or doubly freed box into a failure.
//
//===----------------------------------------------------------------------===//

#include "tuple/Tuple.h"

#include "core/Thread.h"
#include "core/VirtualMachine.h"
#include "gc/GlobalHeap.h"
#include "gc/Object.h"
#include "gtest/gtest.h"

#include <string>
#include <string_view>

namespace {

using namespace sting;

enum class Kind {
  Fixnum,
  Boolean,
  Text0,
  Text16,
  Text17,
  Blob16,
  Blob17,
  Value,
  LiveThread,
  Thunk,
  Formal,
};

constexpr Kind AllKinds[] = {Kind::Fixnum,     Kind::Boolean, Kind::Text0,
                             Kind::Text16,     Kind::Text17,  Kind::Blob16,
                             Kind::Blob17,     Kind::Value,   Kind::LiveThread,
                             Kind::Thunk,      Kind::Formal};

const std::string Bytes16 = "0123456789abcdef";
const std::string Bytes17 = "0123456789abcdefg";

/// What every field in these tests is built from: one heap object and one
/// delayed (never scheduled) thread whose references the fields share.
class FieldTest : public ::testing::Test {
protected:
  FieldTest()
      : Vm(VmConfig{.NumVps = 1, .NumPps = 1}),
        Th(Thread::create(Vm, [] { return AnyValue(gc::Value::fixnum(7)); })),
        Object(Heap.makeStringShared("object")), StartRefs(Th->refCount()) {}

  ~FieldTest() override { EXPECT_EQ(Th->refCount(), StartRefs); }

  Field make(Kind K) {
    switch (K) {
    case Kind::Fixnum:
      return Field(42);
    case Kind::Boolean:
      return Field(true);
    case Kind::Text0:
      return Field(std::string_view());
    case Kind::Text16:
      return Field(std::string_view(Bytes16));
    case Kind::Text17:
      return Field(std::string_view(Bytes17));
    case Kind::Blob16:
      return Field::blob(Bytes16);
    case Kind::Blob17:
      return Field::blob(Bytes17);
    case Kind::Value:
      return Field(Object);
    case Kind::LiveThread:
      return Field(Th);
    case Kind::Thunk:
      return Field(UniqueFunction<gc::Value()>(
          [] { return gc::Value::fixnum(9); }));
    case Kind::Formal:
      return formal(3);
    }
    return Field(0);
  }

  static std::string_view bytesOf(Kind K) {
    switch (K) {
    case Kind::Text16:
    case Kind::Blob16:
      return Bytes16;
    case Kind::Text17:
    case Kind::Blob17:
      return Bytes17;
    default:
      return {};
    }
  }

  /// \p F reads back as a freshly made field of kind \p K.
  void expectKind(const Field &F, Kind K) {
    SCOPED_TRACE(static_cast<int>(K));
    switch (K) {
    case Kind::Fixnum:
      ASSERT_TRUE(F.isDatum());
      EXPECT_EQ(F.value().asFixnum(), 42);
      return;
    case Kind::Boolean:
      ASSERT_TRUE(F.isDatum());
      EXPECT_TRUE(F.value().isTrue());
      return;
    case Kind::Text0:
    case Kind::Text16:
    case Kind::Text17: {
      ASSERT_TRUE(F.isDatum());
      ASSERT_TRUE(F.hasPendingText());
      std::string_view Got = F.pendingText();
      EXPECT_EQ(Got, bytesOf(K));
      // Up to InlineBytes live in the field itself; longer ones are boxed.
      EXPECT_EQ(inField(F, Got.data()), Got.size() <= Field::InlineBytes);
      return;
    }
    case Kind::Blob16:
    case Kind::Blob17: {
      ASSERT_TRUE(F.isDatum());
      ASSERT_TRUE(F.hasPendingBlob());
      std::string_view Got = F.pendingBlob();
      EXPECT_EQ(Got, bytesOf(K));
      EXPECT_EQ(inField(F, Got.data()), Got.size() <= Field::InlineBytes);
      return;
    }
    case Kind::Value:
      ASSERT_TRUE(F.isDatum());
      EXPECT_EQ(F.value(), Object);
      return;
    case Kind::LiveThread:
      ASSERT_TRUE(F.isLiveThread());
      EXPECT_EQ(F.thread().get(), Th.get());
      return;
    case Kind::Thunk:
      EXPECT_TRUE(F.isThunk());
      return;
    case Kind::Formal:
      ASSERT_TRUE(F.isFormal());
      EXPECT_EQ(F.formalIndex(), 3u);
      return;
    }
  }

  /// A moved-from field owns nothing and reads as the nil datum.
  static void expectEmpty(const Field &F) {
    ASSERT_TRUE(F.isDatum());
    EXPECT_FALSE(F.hasPendingText());
    EXPECT_FALSE(F.hasPendingBlob());
    EXPECT_TRUE(F.value().isNil());
  }

  static bool inField(const Field &F, const char *P) {
    const auto *Begin = reinterpret_cast<const char *>(&F);
    return P >= Begin && P < Begin + sizeof(Field);
  }

  static std::string_view bytesOfObject(gc::Value V) {
    const gc::Object *O = V.asObject();
    return std::string_view(O->bytes(), O->byteLength());
  }

  VirtualMachine Vm;
  gc::GlobalHeap Heap;
  ThreadRef Th;
  gc::Value Object;
  std::uint32_t StartRefs;
};

TEST_F(FieldTest, IsTwentyFourBytes) { EXPECT_EQ(sizeof(Field), 24u); }

TEST_F(FieldTest, EveryKindBuildsMovesAndDestroys) {
  for (Kind K : AllKinds) {
    Field F = make(K);
    expectKind(F, K);
    Field G(std::move(F));
    expectKind(G, K);
    expectEmpty(F);
  }
}

TEST_F(FieldTest, MoveAssignsOverEveryOtherKind) {
  for (Kind To : AllKinds)
    for (Kind From : AllKinds) {
      SCOPED_TRACE(static_cast<int>(To));
      Field Dst = make(To);
      Field Src = make(From);
      Dst = std::move(Src);
      expectKind(Dst, From);
      expectEmpty(Src);
    }
}

TEST_F(FieldTest, LiveThreadFieldsHoldOneReferenceEach) {
  {
    Field A = make(Kind::LiveThread);
    Field B = make(Kind::LiveThread);
    EXPECT_EQ(Th->refCount(), StartRefs + 2);
    ThreadRef Copy = A.thread(); // a shared reference, not a transfer
    EXPECT_EQ(Th->refCount(), StartRefs + 3);
    A = std::move(B);
    EXPECT_EQ(Th->refCount(), StartRefs + 2);
  }
  EXPECT_EQ(Th->refCount(), StartRefs);
}

TEST_F(FieldTest, ResolvesWhereTheKindAllows) {
  for (Kind K : AllKinds) {
    SCOPED_TRACE(static_cast<int>(K));
    Field F = make(K);
    if (F.hasPendingText()) {
      F.resolveText(Heap.intern(F.pendingText()));
      EXPECT_FALSE(F.hasPendingText());
      EXPECT_EQ(bytesOfObject(F.value()), bytesOf(K));
    } else if (F.hasPendingBlob()) {
      F.resolveBlob(Heap.makeStringShared(F.pendingBlob()));
      EXPECT_FALSE(F.hasPendingBlob());
      EXPECT_EQ(bytesOfObject(F.value()), bytesOf(K));
    } else if (F.isLiveThread()) {
      F.becomeDatum(gc::Value::fixnum(5));
      EXPECT_EQ(Th->refCount(), StartRefs);
      EXPECT_EQ(F.value().asFixnum(), 5);
    } else if (F.isThunk()) {
      UniqueFunction<gc::Value()> Code = F.takeThunk();
      EXPECT_EQ(Code().asFixnum(), 9);
      F.becomeLiveThread(Th);
      expectKind(F, Kind::LiveThread);
      EXPECT_EQ(Th->refCount(), StartRefs + 1);
    } else if (F.isDatum()) {
      F.setValue(gc::Value::fixnum(6));
      EXPECT_EQ(F.value().asFixnum(), 6);
    }
  }
}

TEST_F(FieldTest, MatchValuesSpillPastTheInlineCapacity) {
  Match M;
  M.Fields.assign(20);
  for (int I = 0; I != 20; ++I)
    M.Fields[I] = gc::Value::fixnum(I);
  Match Copy = M;
  Match Moved = std::move(M);
  ASSERT_EQ(Copy.Fields.size(), 20u);
  ASSERT_EQ(Moved.Fields.size(), 20u);
  EXPECT_EQ(M.Fields.size(), 0u);
  for (int I = 0; I != 20; ++I) {
    EXPECT_EQ(Copy.Fields[I].asFixnum(), I);
    EXPECT_EQ(Moved.Fields[I].asFixnum(), I);
  }
  // Back under the inline capacity, then copied over a spilled match.
  Match Small;
  Small.Fields.assign(3, gc::Value::fixnum(1));
  Copy = Small;
  EXPECT_EQ(Copy.Fields.size(), 3u);
  Moved = std::move(Small);
  EXPECT_EQ(Moved.Fields.size(), 3u);
  EXPECT_EQ(Moved.Fields[2].asFixnum(), 1);
}

TEST_F(FieldTest, BindFormalsReadsNilForUnboundFormalNumbers) {
  Tuple Template = makeTuple(formal(2), 10, formal(0));
  Match M;
  M.Fields.assign(3, gc::Value());
  M.Fields[0] = gc::Value::fixnum(20);
  M.Fields[1] = gc::Value::fixnum(10);
  M.Fields[2] = gc::Value::fixnum(30);
  M.bindFormals(Template);
  ASSERT_EQ(M.Bindings.size(), 3u);
  EXPECT_EQ(M.binding(0).asFixnum(), 30);
  EXPECT_TRUE(M.binding(1).isNil());
  EXPECT_EQ(M.binding(2).asFixnum(), 20);
}

} // namespace
