"""Self-check of the steadiness command's spread and ratio arithmetic.

    python3 perfbench/test/test_steady.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from steady import spread, worse_by  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_as_share_of_median(self):
        # statistics.quantiles(1..9, n=4) (exclusive) = [2.5, 5.0, 7.5].
        self.assertAlmostEqual(spread(range(1, 10)), 5.0 / 5.0)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread([3.0] * 10), 0.0)

    def test_ten_runs_one_outlier(self):
        vals = [100.0] * 9 + [1000.0]
        self.assertEqual(spread(vals), 0.0)

    def test_zero_median_is_infinite(self):
        self.assertEqual(spread([0.0, 0.0, 0.0]), float("inf"))


class WorseByTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(worse_by(100.0, 90.0, "lower"), -0.10)

    def test_higher_is_better(self):
        self.assertAlmostEqual(worse_by(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(worse_by(100.0, 120.0, "higher"), -0.20)

    def test_zero_base(self):
        self.assertEqual(worse_by(0.0, 0.0, "lower"), 0.0)
        self.assertEqual(worse_by(0.0, 1.0, "lower"), float("inf"))


if __name__ == "__main__":
    unittest.main()
