//===- perfbench/src/Spans.cpp - In-memory span log ----------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace perfbench {

void SpanLog::add(const Span &S) {
  std::lock_guard<sting::SpinLock> Guard(Lock);
  if (Spans.size() == Capacity) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Spans.push_back(S);
}

std::size_t SpanLog::size() const {
  std::lock_guard<sting::SpinLock> Guard(Lock);
  return Spans.size();
}

bool SpanLog::writeChrome(const std::string &Path) const {
  std::vector<Span> Copy;
  {
    std::lock_guard<sting::SpinLock> Guard(Lock);
    Copy = Spans;
  }
  std::uint64_t Base = ~0ULL;
  for (const Span &S : Copy)
    Base = std::min(Base, S.StartNs);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool First = true;
  for (const Span &S : Copy) {
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 First ? "" : ",", S.Name, S.Tid,
                 static_cast<double>(S.StartNs - Base) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
