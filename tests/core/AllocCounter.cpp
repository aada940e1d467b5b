//===- tests/core/AllocCounter.cpp - Counting operator new -----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

/// Set on the one OS thread whose allocations are counted.
thread_local bool CountAllocs = false;
std::atomic<std::uint64_t> Allocs{0};

void *countedAlloc(std::size_t N, std::size_t Align) {
  if (CountAllocs)
    Allocs.fetch_add(1, std::memory_order_relaxed);
  if (N == 0)
    N = 1;
  if (Align <= alignof(std::max_align_t))
    return std::malloc(N);
  return std::aligned_alloc(Align, (N + Align - 1) / Align * Align);
}

void *countedAllocOrThrow(std::size_t N, std::size_t Align) {
  if (void *P = countedAlloc(N, Align))
    return P;
  throw std::bad_alloc();
}

} // namespace

// Every replaceable form, so each allocation and its release go through
// one malloc/free pair whatever the sanitizer runtime defines.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *operator new(std::size_t N) { return countedAllocOrThrow(N, 0); }
void *operator new[](std::size_t N) { return countedAllocOrThrow(N, 0); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N, 0);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N, 0);
}
void *operator new(std::size_t N, std::align_val_t A) {
  return countedAllocOrThrow(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return countedAllocOrThrow(N, static_cast<std::size_t>(A));
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}

void sting::testutil::countAllocs(bool On) { CountAllocs = On; }

std::uint64_t sting::testutil::allocCount() {
  return Allocs.load(std::memory_order_relaxed);
}
