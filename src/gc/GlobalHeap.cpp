//===- gc/GlobalHeap.cpp - Shared older generation --------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "gc/GlobalHeap.h"

#include "gc/LocalHeap.h"
#include "support/Clock.h"

#include <cstring>
#include <mutex>

namespace sting {
namespace gc {

GlobalHeap::GlobalHeap(std::size_t BlockBytes)
    : BlockBytes(BlockBytes < 4096 ? 4096 : BlockBytes) {}

GlobalHeap::~GlobalHeap() = default;

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

Object *GlobalHeap::allocateFromFreeList(std::size_t Bytes) {
  for (auto It = FreeList.begin(); It != FreeList.end(); ++It) {
    Object *Chunk = *It;
    std::size_t ChunkBytes = Chunk->sizeInBytes();
    if (ChunkBytes < Bytes)
      continue;
    FreeList.erase(It);
    std::size_t Leftover = ChunkBytes - Bytes;
    if (Leftover >= sizeof(Object)) {
      // Split: the tail remains a free chunk (possibly header-only).
      auto *Tail = reinterpret_cast<Object *>(
          reinterpret_cast<char *>(Chunk) + Bytes);
      Tail->initHeader(ObjectKind::FreeChunk,
                       static_cast<std::uint32_t>(
                           (Leftover - sizeof(Object)) / 8));
      FreeList.push_back(Tail);
    }
    return Chunk;
  }
  return nullptr;
}

Object *GlobalHeap::allocateLocked(ObjectKind Kind, std::uint32_t SlotCount) {
  const std::size_t Bytes = sizeof(Object) + std::size_t(SlotCount) * 8;

  Object *O = allocateFromFreeList(Bytes);
  if (!O) {
    if (Blocks.empty() || !Blocks.back()->remaining() ||
        Blocks.back()->remaining() < Bytes) {
      std::size_t NewBlock = BlockBytes > Bytes + 16 ? BlockBytes : Bytes + 16;
      Blocks.push_back(std::make_unique<Area>(NewBlock));
    }
    O = static_cast<Object *>(Blocks.back()->allocate(Bytes));
    STING_CHECK(O, "old-generation block allocation failed");
  }

  O->initHeader(Kind, SlotCount);
  O->setInOld();
  if (O->hasTracedSlots()) {
    for (std::uint32_t I = 0; I != SlotCount; ++I)
      O->slots()[I] = Value::nil();
  } else {
    std::memset(static_cast<void *>(O->slots()), 0,
                std::size_t(SlotCount) * 8);
  }

  ++Stats.ObjectsAllocated;
  Stats.BytesAllocated += Bytes;
  return O;
}

Object *GlobalHeap::allocate(ObjectKind Kind, std::uint32_t SlotCount) {
  std::lock_guard<SpinLock> Guard(Lock);
  return allocateLocked(Kind, SlotCount);
}

Value GlobalHeap::consShared(Value Car, Value Cdr) {
  STING_DCHECK((!Car.isObject() || Car.asObject()->isInOld()) &&
                   (!Cdr.isObject() || Cdr.asObject()->isInOld()),
               "shared cons over unescaped young values");
  Object *O = allocate(ObjectKind::Pair, 2);
  O->setSlotRaw(0, Car);
  O->setSlotRaw(1, Cdr);
  return Value::object(O);
}

Value GlobalHeap::makeVectorShared(std::uint32_t Length, Value Fill) {
  Object *O = allocate(ObjectKind::Vector, Length);
  for (std::uint32_t I = 0; I != Length; ++I)
    O->setSlotRaw(I, Fill);
  return Value::object(O);
}

Value GlobalHeap::makeStringShared(std::string_view Text) {
  const auto Words = static_cast<std::uint32_t>((Text.size() + 7) / 8);
  Object *O = allocate(ObjectKind::String, Words);
  O->setByteLength(Text.size());
  std::memcpy(O->bytes(), Text.data(), Text.size());
  return Value::object(O);
}

Value GlobalHeap::makeBoxShared(Value V) {
  Object *O = allocate(ObjectKind::Box, 1);
  O->setSlotRaw(0, V);
  return Value::object(O);
}

Value GlobalHeap::intern(std::string_view Name) {
  std::atomic<Object *> &Cached =
      SymbolCache[std::hash<std::string_view>()(Name) % SymbolCache.size()];
  if (Object *O = Cached.load(std::memory_order_acquire);
      O && O->byteLength() == Name.size() &&
      std::memcmp(O->bytes(), Name.data(), Name.size()) == 0)
    return Value::object(O);

  std::lock_guard<SpinLock> Guard(Lock);
  auto It = Symbols.find(std::string(Name));
  Object *O = It != Symbols.end() ? It->second : nullptr;
  if (!O) {
    const auto Words = static_cast<std::uint32_t>((Name.size() + 7) / 8);
    O = allocateLocked(ObjectKind::Symbol, Words);
    O->setByteLength(Name.size());
    std::memcpy(O->bytes(), Name.data(), Name.size());
    Symbols.emplace(std::string(Name), O);
  }
  Cached.store(O, std::memory_order_release);
  return Value::object(O);
}

//===----------------------------------------------------------------------===//
// Roots
//===----------------------------------------------------------------------===//

void GlobalHeap::addRoot(Value *Slot) {
  std::lock_guard<SpinLock> Guard(Lock);
  Roots.push_back(Slot);
}

void GlobalHeap::removeRoot(Value *Slot) {
  std::lock_guard<SpinLock> Guard(Lock);
  for (auto It = Roots.begin(); It != Roots.end(); ++It) {
    if (*It != Slot)
      continue;
    Roots.erase(It);
    return;
  }
}

void GlobalHeap::addRootSource(RootSource *Source) {
  std::lock_guard<SpinLock> Guard(Lock);
  RootSources.push_back(Source);
}

void GlobalHeap::removeRootSource(RootSource *Source) {
  std::lock_guard<SpinLock> Guard(Lock);
  std::erase(RootSources, Source);
}

bool GlobalHeap::contains(const void *P) const {
  std::lock_guard<SpinLock> Guard(Lock);
  for (const auto &Block : Blocks)
    if (Block->contains(P))
      return true;
  return false;
}

GlobalHeapStats GlobalHeap::stats() const {
  std::lock_guard<SpinLock> Guard(Lock);
  return Stats;
}

//===----------------------------------------------------------------------===//
// Full collection
//===----------------------------------------------------------------------===//

void GlobalHeap::markValue(Value V, std::vector<Object *> &Gray) {
  if (!V.isObject())
    return;
  Object *O = V.asObject();
  if (!O->isInOld() || O->isMarked())
    return;
  O->setMarked(true);
  Gray.push_back(O);
}

void GlobalHeap::collectFull(const std::vector<LocalHeap *> &Mutators) {
  std::lock_guard<SpinLock> Guard(Lock);
  ++Stats.FullCollections;
  std::uint64_t PauseStart = nowNanos();

  // --- Mark -------------------------------------------------------------
  std::vector<Object *> Gray;
  for (Value *Slot : Roots)
    markValue(*Slot, Gray);
  for (RootSource *Source : RootSources)
    Source->markRoots([&](Value V) { markValue(V, Gray); });
  for (auto &[Name, Sym] : Symbols) {
    if (!Sym->isMarked()) {
      Sym->setMarked(true);
      Gray.push_back(Sym);
    }
  }
  for (LocalHeap *Mutator : Mutators) {
    // Young objects may hold the only references into the old generation;
    // scanning the whole young area (live or not) conservatively retains
    // some floating garbage for one cycle, which is sound.
    Mutator->From->forEachObject([&](Object &O) {
      if (O.isForwarded() || !O.hasTracedSlots())
        return;
      for (std::uint32_t I = 0, E = O.slotCount(); I != E; ++I)
        markValue(O.slots()[I], Gray);
    });
    for (HandleScope *Scope = Mutator->Scopes; Scope;
         Scope = Scope->previous())
      for (Value *Slot = Scope->begin(); Slot != Scope->end(); ++Slot)
        markValue(*Slot, Gray);
    for (Value *Slot : Mutator->ExternalRoots)
      markValue(*Slot, Gray);
  }

  while (!Gray.empty()) {
    Object *O = Gray.back();
    Gray.pop_back();
    if (!O->hasTracedSlots())
      continue;
    for (std::uint32_t I = 0, E = O->slotCount(); I != E; ++I)
      markValue(O->slots()[I], Gray);
  }

  // --- Prune remembered sets whose containers died ------------------------
  for (LocalHeap *Mutator : Mutators) {
    auto &Entries = Mutator->Remembered;
    std::size_t Keep = 0;
    for (std::size_t I = 0; I != Entries.size(); ++I)
      if (Entries[I].Container->isMarked())
        Entries[Keep++] = Entries[I];
    Entries.resize(Keep);
  }

  // --- Sweep --------------------------------------------------------------
  FreeList.clear();
  std::uint64_t Live = 0;
  std::uint64_t Swept = 0;
  for (const auto &Block : Blocks) {
    Object *PendingFree = nullptr;
    Block->forEachObject([&](Object &O) {
      const std::size_t Bytes = O.sizeInBytes();
      const bool IsGarbage =
          O.kind() == ObjectKind::FreeChunk || !O.isMarked();
      if (!IsGarbage) {
        O.setMarked(false);
        Live += Bytes;
        PendingFree = nullptr;
        return;
      }
      if (O.kind() != ObjectKind::FreeChunk)
        Swept += Bytes;
      if (PendingFree) {
        // Coalesce with the preceding free chunk.
        PendingFree->initHeader(
            ObjectKind::FreeChunk,
            static_cast<std::uint32_t>(
                (PendingFree->sizeInBytes() + Bytes - sizeof(Object)) / 8));
        return;
      }
      O.initHeader(ObjectKind::FreeChunk,
                   static_cast<std::uint32_t>((Bytes - sizeof(Object)) / 8));
      O.setInOld();
      PendingFree = &O;
      FreeList.push_back(&O);
    });
  }

  Stats.BytesSwept += Swept;
  Stats.LiveBytesAfterLastGc = Live;
  Stats.PauseNanos.record(nowNanos() - PauseStart);
}

} // namespace gc
} // namespace sting
