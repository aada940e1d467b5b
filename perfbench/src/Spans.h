//===- perfbench/src/Spans.h - In-memory span log -----------------*- C++ -*-===//
//
// Spans recorded by stingbench around each public call it makes in the
// traced run: name, start, end, the span that caused it and the request
// (flow) id. Kept in memory, bounded, and written as Chrome-trace JSON
// when the run ends.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "support/SpinLock.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name;
  std::uint64_t StartNs, EndNs;
  std::uint64_t Id, Parent, Request;
  std::uint32_t Tid;
};

/// Thread-safe; shared by every lane and worker of one run.
class SpanLog {
public:
  explicit SpanLog(std::size_t Capacity) : Capacity(Capacity) {
    Spans.reserve(Capacity);
  }

  std::uint64_t newId() {
    return NextId.fetch_add(1, std::memory_order_relaxed);
  }

  /// Keeps the span unless the log is full (then counts it as dropped).
  void add(const Span &S);

  std::size_t size() const;
  std::uint64_t dropped() const {
    return Dropped.load(std::memory_order_relaxed);
  }

  /// Writes every kept span as a Chrome "X" event. \returns false on
  /// I/O failure.
  bool writeChrome(const std::string &Path) const;

private:
  const std::size_t Capacity;
  mutable sting::SpinLock Lock;
  std::vector<Span> Spans; ///< guarded by Lock
  std::atomic<std::uint64_t> NextId{1};
  std::atomic<std::uint64_t> Dropped{0};
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
