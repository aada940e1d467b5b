//===- obs/SchedStats.cpp - Per-VP scheduler counters ---------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "obs/SchedStats.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace sting::obs {

SchedStatsSnapshot SchedStats::snapshot() const {
  SchedStatsSnapshot S;
#define STING_COPY(Field, Label, Metric) S.Field = Field;
  STING_SCHED_COUNTERS(STING_COPY)
#undef STING_COPY
  S.RunSliceNanos = RunSliceNanos;
  S.GcPauseNanos = GcPauseNanos;
  return S;
}

SchedStatsSnapshot &
SchedStatsSnapshot::operator+=(const SchedStatsSnapshot &Other) {
#define STING_ADD(Field, Label, Metric) Field += Other.Field;
  STING_SCHED_COUNTERS(STING_ADD)
#undef STING_ADD
  TraceEvents += Other.TraceEvents;
  TraceDrops += Other.TraceDrops;
  RunSliceNanos.merge(Other.RunSliceNanos);
  GcPauseNanos.merge(Other.GcPauseNanos);
  return *this;
}

namespace {

constexpr CounterRow Rows[] = {
#define STING_ROW(Field, Label, Metric)                                       \
  {Label, Metric, &SchedStatsSnapshot::Field},
    STING_SCHED_COUNTERS(STING_ROW)
#undef STING_ROW
    {"trace events", "sting_trace_events_total",
     &SchedStatsSnapshot::TraceEvents},
    {"trace drops", "sting_trace_drops_total",
     &SchedStatsSnapshot::TraceDrops},
};

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (N > 0)
    Out.append(Buf, static_cast<std::size_t>(N) < sizeof(Buf)
                        ? static_cast<std::size_t>(N)
                        : sizeof(Buf) - 1);
}

} // namespace

const CounterRow *counterRows(std::size_t &Count) {
  Count = sizeof(Rows) / sizeof(Rows[0]);
  return Rows;
}

std::string formatStatsReport(const SchedStatsSnapshot &Total,
                              const std::vector<SchedStatsSnapshot> &PerVp) {
  std::string Out;
  Out += "--- scheduler stats ";
  Out.append(59, '-');
  Out += '\n';
  appendf(Out, "%-20s %14s", "counter", "total");
  for (std::size_t V = 0; V != PerVp.size(); ++V)
    appendf(Out, " %10s%zu", "vp", V);
  Out += '\n';
  for (const CounterRow &R : Rows) {
    appendf(Out, "%-20s %14" PRIu64, R.Name, Total.*(R.Field));
    for (const SchedStatsSnapshot &S : PerVp)
      appendf(Out, " %11" PRIu64, S.*(R.Field));
    Out += '\n';
  }
  // Zero samples is the common case (slices are only timed while event
  // tracing is on); print the line anyway so readers learn it exists.
  appendf(Out,
          "run slices: %" PRIu64 " samples, mean %.0fns, "
          "p50 %" PRIu64 "ns, p95 %" PRIu64 "ns, p99 %" PRIu64 "ns\n",
          Total.RunSliceNanos.count(), Total.RunSliceNanos.meanNanos(),
          Total.RunSliceNanos.p50Nanos(), Total.RunSliceNanos.p95Nanos(),
          Total.RunSliceNanos.p99Nanos());
  appendf(Out,
          "gc pauses:  %" PRIu64 " samples, mean %.0fns, "
          "p50 %" PRIu64 "ns, p95 %" PRIu64 "ns, p99 %" PRIu64 "ns\n",
          Total.GcPauseNanos.count(), Total.GcPauseNanos.meanNanos(),
          Total.GcPauseNanos.p50Nanos(), Total.GcPauseNanos.p95Nanos(),
          Total.GcPauseNanos.p99Nanos());
  Out.append(79, '-');
  Out += '\n';
  return Out;
}

} // namespace sting::obs
