//===- perfbench/test/selfcheck.cpp - Checks of stingbench's statistics --===//
//
// The percentile and ratio code every reported number goes through,
// checked against values worked by hand (and against what numpy and
// Python's statistics.quantiles(method='inclusive') give). Exits non-zero
// on the first mismatch.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

static int Failures = 0;

static void expectNear(const char *What, double Got, double Want) {
  if (std::fabs(Got - Want) > 1e-9 * std::max(1.0, std::fabs(Want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", What, Got, Want);
    ++Failures;
  }
}

int main() {
  // Interpolated ranks: p50 of 1..4 sits halfway between 2 and 3.
  Samples A;
  for (double V : {4.0, 1.0, 3.0, 2.0}) // unsorted on purpose
    A.add(V);
  expectNear("p50 of 1..4", A.percentile(50), 2.5);
  expectNear("p0 of 1..4", A.percentile(0), 1.0);
  expectNear("p100 of 1..4", A.percentile(100), 4.0);
  expectNear("p90 of 1..4", A.percentile(90), 3.7);

  // 1..100: p90 = 90.1, p99 = 99.01, p99.9 = 99.901 (numpy's default).
  Samples B;
  for (int I = 100; I >= 1; --I)
    B.add(I);
  expectNear("p90 of 1..100", B.percentile(90), 90.1);
  expectNear("p99 of 1..100", B.percentile(99), 99.01);
  expectNear("p99.9 of 1..100", B.percentile(99.9), 99.901);
  expectNear("mean of 1..100", B.mean(), 50.5);

  // Exact, not bucketed: values a power-of-two histogram would merge.
  Samples C;
  for (double V : {1025.0, 1100.0, 1900.0})
    C.add(V);
  expectNear("p50 of {1025,1100,1900}", C.percentile(50), 1100.0);

  // Adding after a percentile re-sorts.
  C.add(1.0);
  expectNear("p0 after add", C.percentile(0), 1.0);

  // Degenerate inputs.
  Samples Empty, One;
  One.add(42.0);
  expectNear("p50 of empty", Empty.percentile(50), 0.0);
  expectNear("p99 of one", One.percentile(99), 42.0);
  expectNear("percentile clamps above 100", One.percentile(250), 42.0);

  // Merging lanes keeps every sample.
  Samples M;
  M.append(A);
  M.append(B);
  if (M.count() != 104) {
    std::fprintf(stderr, "FAIL append: count %zu\n", M.count());
    ++Failures;
  }

  // A capped set thins uniformly: 1..100000 with cap 1000 keeps every
  // 64th value (64, 128, ...), whose percentiles track the full set's.
  Samples T(1000);
  for (int I = 1; I <= 100000; ++I)
    T.add(I);
  if (T.stride() != 64 || T.count() != 1562) {
    std::fprintf(stderr, "FAIL thinning: stride %llu count %zu\n",
                 static_cast<unsigned long long>(T.stride()), T.count());
    ++Failures;
  }
  expectNear("p0 of thinned", T.percentile(0), 64.0);
  expectNear("p50 of thinned", T.percentile(50), 50016.0);

  // Appending a finer set thins it to the coarser stride first.
  Samples Fine, Coarse(2);
  for (int I = 1; I <= 8; ++I) {
    Fine.add(I);
    Coarse.add(100 + I); // cap 2: ends at stride 4, keeping 104, 108
  }
  Fine.append(Coarse);
  if (Fine.stride() != 4 || Fine.count() != 4) {
    std::fprintf(stderr, "FAIL append strides: stride %llu count %zu\n",
                 static_cast<unsigned long long>(Fine.stride()), Fine.count());
    ++Failures;
  }
  expectNear("p0 after strided append", Fine.percentile(0), 4.0);
  expectNear("p100 after strided append", Fine.percentile(100), 108.0);

  // Ratios and counter deltas.
  expectNear("ratio", ratio(3.0, 4.0), 0.75);
  expectNear("ratio by zero", ratio(3.0, 0.0), 0.0);
  expectNear("delta", static_cast<double>(delta(10, 4)), 6.0);
  expectNear("delta backwards", static_cast<double>(delta(4, 10)), 0.0);

  if (Failures) {
    std::fprintf(stderr, "%d self-check failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench selfcheck: ok\n");
  return 0;
}
