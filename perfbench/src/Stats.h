//===- perfbench/src/Stats.h - Exact order statistics ------------*- C++ -*-===//
//
// Percentiles computed from the raw per-op samples (never from bucketed
// histograms), plus the ratio helper every per-op counter goes through.
// Header-only so test/selfcheck.cpp can check it without the library.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The \p P-th percentile (0..100) of \p Sorted, which must be sorted
/// ascending: linear interpolation between the two closest ranks, the
/// definition numpy and statistics.quantiles(method='inclusive') use.
/// 0 for an empty sample.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  if (Sorted.size() == 1)
    return Sorted.front();
  const double Rank = std::clamp(P, 0.0, 100.0) / 100.0 *
                      static_cast<double>(Sorted.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(std::floor(Rank));
  const std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

/// Raw samples, sorted once before the first percentile. With a cap the
/// memory stays flat however fast the system runs: once 2*Cap samples
/// are held, every other one is dropped and from then on only every
/// Stride-th sample is kept (Stride doubling each time), so the kept set
/// stays a uniform, deterministic thinning of the whole run and its
/// percentiles are exact order statistics of that set.
class Samples {
public:
  explicit Samples(std::size_t Cap = 0) : Cap(Cap) {}

  void add(double V) {
    if (++Skipped < Stride)
      return;
    Skipped = 0;
    Values.push_back(V);
    Sorted = false;
    if (Cap && Values.size() >= 2 * Cap)
      thinBy(2);
  }

  /// Appends \p O's samples. Both sides are first thinned to the coarser
  /// stride, so samples from every source carry the same weight.
  void append(const Samples &O) {
    const std::uint64_t S = std::max(Stride, O.Stride);
    thinBy(S / Stride);
    const std::uint64_t Step = S / O.Stride;
    for (std::size_t I = Step - 1; I < O.Values.size(); I += Step)
      Values.push_back(O.Values[I]);
    Sorted = false;
  }

  std::size_t count() const { return Values.size(); }
  bool empty() const { return Values.empty(); }
  /// Keeps one sample in this many.
  std::uint64_t stride() const { return Stride; }

  double percentile(double P) {
    if (!Sorted) {
      std::sort(Values.begin(), Values.end());
      Sorted = true;
    }
    return percentileSorted(Values, P);
  }

  double mean() const {
    if (Values.empty())
      return 0.0;
    double Sum = 0.0;
    for (double V : Values)
      Sum += V;
    return Sum / static_cast<double>(Values.size());
  }

private:
  /// Keeps every \p K-th held sample (the K-th, 2K-th, ...).
  void thinBy(std::uint64_t K) {
    if (K <= 1)
      return;
    std::size_t Out = 0;
    for (std::size_t I = K - 1; I < Values.size(); I += K)
      Values[Out++] = Values[I];
    Values.resize(Out);
    Stride *= K;
  }

  std::vector<double> Values;
  std::size_t Cap;
  std::uint64_t Stride = 1, Skipped = 0;
  bool Sorted = true;
};

/// \p Num / \p Den, or 0 when there is nothing to divide by (a counter
/// with no base on this workload reports 0, with its base count beside it).
inline double ratio(double Num, double Den) {
  return Den == 0.0 ? 0.0 : Num / Den;
}

/// Difference of two monotonic counter readings; a counter that moved
/// backwards (never expected) reads as 0 rather than wrapping.
inline std::uint64_t delta(std::uint64_t After, std::uint64_t Before) {
  return After >= Before ? After - Before : 0;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
