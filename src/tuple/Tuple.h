//===- tuple/Tuple.h - Tuples, templates and matches -------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tuples and templates for first-class tuple spaces (paper section 4.2).
/// "Our system also treats tuples as objects, and tuple operations as
/// binding expressions, not statements."
///
/// A Field is one tuple position:
///   - a datum (tagged gc value; C++ integers and strings convert —
///     strings intern as symbols, so equality is identity),
///   - a *live thread* (the paper's spawn deposits threads as bona fide
///     tuple elements),
///   - a *thunk* (only in spawn: forked into a live thread),
///   - a *formal* ("?x"): only in templates; acquires a binding on match.
///
//===----------------------------------------------------------------------===//

#ifndef STING_TUPLE_TUPLE_H
#define STING_TUPLE_TUPLE_H

#include "core/Thread.h"
#include "gc/Value.h"
#include "support/UniqueFunction.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace sting {

/// One position of a tuple or template: 24 bytes, a tag plus one 16-byte
/// payload (DESIGN.md §12.3). The payload is the datum's gc::Value, the
/// live thread's owned reference, up to 16 bytes of pending text or blob
/// inline, or a box (a heap std::string for longer pending bytes, the
/// spawn thunk's UniqueFunction) — a field only ever uses one of them.
class Field {
public:
  enum class Kind : std::uint8_t {
    Datum,      ///< a gc::Value (possibly pending text/blob allocation)
    LiveThread, ///< a running/scheduled thread; its value is the field
    Thunk,      ///< spawn-only: code to fork into a LiveThread
    Formal,     ///< template-only: binds the matched value
  };

  /// Pending bytes up to this long are stored in the field itself.
  static constexpr std::size_t InlineBytes = 16;

  /// Fixnum datum.
  Field(int V) { P.V = gc::Value::fixnum(V); }
  Field(long V) { P.V = gc::Value::fixnum(V); }
  Field(long long V) { P.V = gc::Value::fixnum(V); }

  /// Boolean datum.
  Field(bool B) { P.V = gc::Value::boolean(B); }

  /// Text datum; interned as a symbol when the tuple enters a space.
  Field(const char *Text) { setPending(Pending::Text, Text); }
  Field(std::string_view Text) { setPending(Pending::Text, Text); }

  /// Arbitrary tagged value. Young values are escaped to the shared old
  /// generation when the tuple enters a space.
  Field(gc::Value V) { P.V = V; }

  /// A live thread (the paper's threads-in-tuples). The thread's result
  /// must be an AnyValue holding a gc::Value.
  Field(ThreadRef T) : TheKind(Kind::LiveThread) { P.Th = T.detach(); }

  /// Spawn-only thunk field.
  Field(UniqueFunction<gc::Value()> Code) : TheKind(Kind::Thunk) {
    P.Code = new UniqueFunction<gc::Value()>(std::move(Code));
  }

  /// Template formal binding slot \p Index (the paper's ?x).
  static Field formal(unsigned Index) {
    Field F;
    F.TheKind = Kind::Formal;
    F.FormalIndex = Index;
    return F;
  }

  /// Binary datum carried as raw pending bytes; allocated as a String in
  /// the *shared* heap when the tuple enters a space. Decode paths
  /// (net/Wire) use this so building a tuple never allocates young
  /// objects — a young String held unrooted in a half-built tuple would
  /// be lost to any scavenge a later field's allocation triggers.
  static Field blob(std::string_view Bytes) {
    Field F;
    F.setPending(Pending::Blob, Bytes);
    return F;
  }

  /// Fields own their thread reference or box, so they move, never copy;
  /// a moved-from field is the nil datum.
  Field(Field &&O) noexcept
      : P(O.P), TheKind(O.TheKind), ThePending(O.ThePending), Len(O.Len),
        FormalIndex(O.FormalIndex) {
    O.forget();
  }
  Field &operator=(Field &&O) noexcept {
    if (this != &O) {
      destroy();
      P = O.P;
      TheKind = O.TheKind;
      ThePending = O.ThePending;
      Len = O.Len;
      FormalIndex = O.FormalIndex;
      O.forget();
    }
    return *this;
  }
  ~Field() { destroy(); }

  Kind kind() const { return TheKind; }
  bool isDatum() const { return TheKind == Kind::Datum; }
  bool isFormal() const { return TheKind == Kind::Formal; }
  bool isLiveThread() const { return TheKind == Kind::LiveThread; }
  bool isThunk() const { return TheKind == Kind::Thunk; }

  /// Datum access; pending text/blob must have been resolved by the space.
  gc::Value value() const {
    STING_DCHECK(isDatum() && ThePending == Pending::None,
                 "field has no value yet");
    return P.V;
  }

  /// Address of the datum slot, for GC root registration by spaces.
  gc::Value *valueSlot() { return &P.V; }

  bool hasPendingText() const { return ThePending == Pending::Text; }
  bool hasPendingBlob() const { return ThePending == Pending::Blob; }
  std::string_view pendingText() const { return pendingBytes(); }
  std::string_view pendingBlob() const { return pendingBytes(); }
  void resolveText(gc::Value Symbol) { becomeDatum(Symbol); }
  void resolveBlob(gc::Value String) { becomeDatum(String); }
  void setValue(gc::Value NewV) { P.V = NewV; }

  unsigned formalIndex() const {
    STING_DCHECK(isFormal(), "formalIndex of non-formal");
    return FormalIndex;
  }

  /// The live thread, or null for every other kind.
  ThreadRef thread() const {
    return isLiveThread() ? ThreadRef(P.Th) : ThreadRef();
  }

  UniqueFunction<gc::Value()> takeThunk() {
    STING_DCHECK(isThunk(), "takeThunk of non-thunk");
    return std::move(*P.Code);
  }

  /// Converts a thunk field into the live thread that evaluates it.
  void becomeLiveThread(ThreadRef T) {
    STING_DCHECK(isThunk(), "becomeLiveThread on non-thunk");
    delete P.Code;
    TheKind = Kind::LiveThread;
    P.Th = T.detach();
  }

  /// Replaces a live-thread field with its determined value (or pending
  /// bytes with the object they resolved to).
  void becomeDatum(gc::Value NewV) {
    destroy();
    TheKind = Kind::Datum;
    ThePending = Pending::None;
    P.V = NewV;
  }

private:
  /// Datum payloads that defer GC-heap allocation until the tuple enters
  /// a space (where they resolve under TupleSpace::prepare's rooting).
  enum class Pending : std::uint8_t { None, Text, Blob };

  /// Len of pending bytes kept in a box rather than inline.
  static constexpr std::uint8_t Boxed = 0xff;

  union Payload {
    Payload() : V() {}
    gc::Value V;                       ///< Datum (resolved)
    Thread *Th;                        ///< LiveThread: one owned reference
    char Bytes[InlineBytes];           ///< pending bytes, Len of them
    std::string *Box;                  ///< pending bytes past InlineBytes
    UniqueFunction<gc::Value()> *Code; ///< Thunk
  };

  Field() = default;

  void setPending(Pending K, std::string_view Bytes) {
    ThePending = K;
    if (Bytes.size() > InlineBytes) {
      Len = Boxed;
      P.Box = new std::string(Bytes);
      return;
    }
    Len = static_cast<std::uint8_t>(Bytes.size());
    if (Len)
      std::memcpy(P.Bytes, Bytes.data(), Len);
  }

  std::string_view pendingBytes() const {
    STING_DCHECK(ThePending != Pending::None, "field has no pending bytes");
    return Len == Boxed ? std::string_view(*P.Box)
                        : std::string_view(P.Bytes, Len);
  }

  /// Drops what the payload owns; the tag is left for the caller to set.
  void destroy() {
    switch (TheKind) {
    case Kind::LiveThread:
      if (P.Th)
        P.Th->release();
      break;
    case Kind::Thunk:
      delete P.Code;
      break;
    case Kind::Datum:
      if (ThePending != Pending::None && Len == Boxed)
        delete P.Box;
      break;
    case Kind::Formal:
      break;
    }
  }

  /// Leaves a moved-from field owning nothing.
  void forget() {
    TheKind = Kind::Datum;
    ThePending = Pending::None;
    P.V = gc::Value();
  }

  Payload P;
  Kind TheKind = Kind::Datum;
  Pending ThePending = Pending::None;
  std::uint8_t Len = 0; ///< inline pending length, or Boxed
  std::uint32_t FormalIndex = 0;
};
static_assert(sizeof(Field) == 24, "a field is a tag and a 16-byte payload");

/// The paper's ?x notation: formal(0), formal(1), ...
inline Field formal(unsigned Index) { return Field::formal(Index); }

/// A tuple (or template — templates simply contain Formal fields).
using Tuple = std::vector<Field>;

/// Builds a tuple from field-convertible arguments. (Fields are move-only
/// because they own their thread reference or box, so brace-initialization
/// of the vector is unavailable.)
template <typename... Args> Tuple makeTuple(Args &&...As) {
  Tuple T;
  T.reserve(sizeof...(As));
  (T.emplace_back(std::forward<Args>(As)), ...);
  return T;
}

/// A match's values: up to InlineCapacity held in place, so matching a
/// tuple of that arity allocates nothing; longer ones spill to one heap
/// block.
class MatchValues {
public:
  static constexpr std::size_t InlineCapacity = 8;

  MatchValues() = default;
  MatchValues(const MatchValues &O) { assign(O.begin(), O.end()); }
  MatchValues(MatchValues &&O) noexcept { take(O); }
  MatchValues &operator=(const MatchValues &O) {
    if (this != &O)
      assign(O.begin(), O.end());
    return *this;
  }
  MatchValues &operator=(MatchValues &&O) noexcept {
    if (this != &O) {
      freeSpill();
      take(O);
    }
    return *this;
  }
  ~MatchValues() { freeSpill(); }

  std::size_t size() const { return Size; }
  gc::Value *data() { return Data; }
  const gc::Value *data() const { return Data; }
  gc::Value *begin() { return Data; }
  gc::Value *end() { return Data + Size; }
  const gc::Value *begin() const { return Data; }
  const gc::Value *end() const { return Data + Size; }
  gc::Value &operator[](std::size_t I) { return Data[I]; }
  const gc::Value &operator[](std::size_t I) const { return Data[I]; }

  /// Replaces the contents with \p N copies of \p V.
  void assign(std::size_t N, gc::Value V = gc::Value()) {
    reserve(N);
    std::fill_n(Data, N, V);
    Size = static_cast<std::uint32_t>(N);
  }
  /// Replaces the contents with [\p First, \p Last).
  template <typename It> void assign(It First, It Last) {
    reserve(static_cast<std::size_t>(std::distance(First, Last)));
    Size = static_cast<std::uint32_t>(std::copy(First, Last, Data) - Data);
  }

private:
  /// Room for \p N values; the old contents are dropped.
  void reserve(std::size_t N) {
    if (N <= Cap)
      return;
    auto *Grown = new gc::Value[N];
    freeSpill();
    Data = Grown;
    Cap = static_cast<std::uint32_t>(N);
  }
  void freeSpill() {
    if (Data != Inline)
      delete[] Data;
  }
  /// Steals \p O's spill block or copies its inline values; \p O is left
  /// empty and inline.
  void take(MatchValues &O) {
    Size = O.Size;
    if (O.Data == O.Inline) {
      Data = Inline;
      Cap = InlineCapacity;
      std::copy(O.Inline, O.Inline + O.Size, Inline);
    } else {
      Data = O.Data;
      Cap = O.Cap;
      O.Data = O.Inline;
      O.Cap = InlineCapacity;
    }
    O.Size = 0;
  }

  gc::Value *Data = Inline;
  std::uint32_t Size = 0;
  std::uint32_t Cap = InlineCapacity;
  gc::Value Inline[InlineCapacity];
};

/// The result of a successful read/take: resolved field values plus the
/// bindings acquired by formals, indexed by their formal number.
struct Match {
  MatchValues Fields;
  MatchValues Bindings;
  /// The depositor's causal flow (obs/Flow.h), carried across the
  /// put→take handoff; 0 when the representation does not stamp deposits.
  /// The facade adopts a nonzero flow into the matching thread.
  std::uint64_t Flow = 0;

  gc::Value binding(unsigned Index) const {
    STING_CHECK(Index < Bindings.size(), "formal index out of range");
    return Bindings[Index];
  }

  /// Fills Bindings from Fields: each of \p Template's formals binds the
  /// value at its position; formal numbers no field binds read nil.
  void bindFormals(const Tuple &Template);
};

} // namespace sting

#endif // STING_TUPLE_TUPLE_H
