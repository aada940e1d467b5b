//===- gc/GlobalHeap.h - Shared older generation -----------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual machine's shared older generation (paper Fig. 1: "Shared
/// older generation" inside the VM address space): "long-lived or
/// persistent data allocated by a thread is accessible to other threads in
/// the same virtual machine." Non-moving block allocator with mark-sweep
/// full collection; promotion targets and cross-thread data live here so
/// per-thread scavenges never need to touch another thread's young area.
///
//===----------------------------------------------------------------------===//

#ifndef STING_GC_GLOBALHEAP_H
#define STING_GC_GLOBALHEAP_H

#include "gc/Area.h"
#include "support/Histogram.h"
#include "support/SpinLock.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sting {
namespace gc {

class LocalHeap;

/// Statistics surfaced to tests and benchmarks.
struct GlobalHeapStats {
  std::uint64_t BytesAllocated = 0;
  std::uint64_t ObjectsAllocated = 0;
  std::uint64_t FullCollections = 0;
  std::uint64_t BytesSwept = 0;
  std::uint64_t LiveBytesAfterLastGc = 0;
  /// Stop-the-world duration of each full collection, in ns.
  Histogram PauseNanos;
};

/// A runtime structure that stores old-generation values outside the heap
/// and reports them to full collections itself, instead of registering a
/// root slot per stored value (tuple-space storage; DESIGN.md, `src/gc`).
class RootSource {
public:
  /// Calls \p Mark on every value the source currently keeps alive. Runs
  /// inside collectFull, under the heap lock and with mutators quiescent;
  /// it must not call back into the heap.
  virtual void markRoots(const std::function<void(Value)> &Mark) = 0;

protected:
  ~RootSource() = default;
};

/// The shared older generation of one virtual machine.
class GlobalHeap {
public:
  explicit GlobalHeap(std::size_t BlockBytes = 256 * 1024);
  ~GlobalHeap();

  GlobalHeap(const GlobalHeap &) = delete;
  GlobalHeap &operator=(const GlobalHeap &) = delete;

  /// Allocates an old-generation object. Thread-safe (per-heap lock on the
  /// refill and free-list paths).
  Object *allocate(ObjectKind Kind, std::uint32_t SlotCount);

  /// Shared-allocation helpers for runtime structures whose data must be
  /// visible across threads (tuple spaces, streams, thread results).
  Value consShared(Value Car, Value Cdr);
  Value makeVectorShared(std::uint32_t Length, Value Fill);
  Value makeStringShared(std::string_view Text);
  Value makeBoxShared(Value V);

  /// Interns \p Name, returning the unique symbol object. Symbols are
  /// permanent (treated as roots by full collections), so a name already
  /// interned is usually answered from a lock-free front cache; a miss
  /// falls back to the locked table.
  Value intern(std::string_view Name);

  // --- Root registry -----------------------------------------------------

  /// Registers \p Slot as a permanent root (e.g. a runtime structure's
  /// table pointer). The slot must stay valid until removeRoot.
  void addRoot(Value *Slot);
  void removeRoot(Value *Slot);

  /// Registers \p Source, whose markRoots every full collection calls
  /// until removeRootSource.
  void addRootSource(RootSource *Source);
  void removeRootSource(RootSource *Source);

  // --- Full collection ----------------------------------------------------

  /// Mark-sweep collection of the older generation. Requires mutator
  /// quiescence for the duration (the paper's full collections are likewise
  /// global; only *young* collections are per-thread and unsynchronized).
  /// \p Mutators are the live local heaps whose young areas and handle
  /// scopes are scanned as additional roots.
  void collectFull(const std::vector<LocalHeap *> &Mutators);

  bool contains(const void *P) const;

  GlobalHeapStats stats() const;

private:
  Object *allocateLocked(ObjectKind Kind, std::uint32_t SlotCount);
  Object *allocateFromFreeList(std::size_t Bytes);
  void markValue(Value V, std::vector<Object *> &Gray);

  mutable SpinLock Lock;
  std::size_t BlockBytes;
  std::vector<std::unique_ptr<Area>> Blocks;
  /// First-fit free list of swept chunks (addresses of FreeChunk objects).
  std::vector<Object *> FreeList;
  std::vector<Value *> Roots;
  std::vector<RootSource *> RootSources;
  std::unordered_map<std::string, Object *> Symbols;
  /// Direct-mapped cache over Symbols, read without Lock: a slot holds a
  /// published, immutable symbol or null, and collisions just overwrite.
  std::array<std::atomic<Object *>, 256> SymbolCache{};
  GlobalHeapStats Stats;
};

} // namespace gc
} // namespace sting

#endif // STING_GC_GLOBALHEAP_H
