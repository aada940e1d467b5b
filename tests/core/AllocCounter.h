//===- tests/core/AllocCounter.h - Counting operator new -------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The core test binary replaces the global operator new (AllocCounter.cpp)
// with one that counts the calls made on an OS thread that has opted in.
//
//===----------------------------------------------------------------------===//

#ifndef STING_TESTS_CORE_ALLOCCOUNTER_H
#define STING_TESTS_CORE_ALLOCCOUNTER_H

#include <cstdint>

namespace sting::testutil {

/// Starts or stops counting the calling OS thread's operator new calls.
void countAllocs(bool On);

/// The operator new calls counted so far, over all threads.
std::uint64_t allocCount();

/// \returns the operator new calls \p F makes on the calling OS thread
/// (with one physical processor, every VP and sting thread runs on it).
template <typename Fn> std::uint64_t allocsDuring(Fn &&F) {
  const std::uint64_t Before = allocCount();
  countAllocs(true);
  F();
  countAllocs(false);
  return allocCount() - Before;
}

} // namespace sting::testutil

#endif // STING_TESTS_CORE_ALLOCCOUNTER_H
