"""Self-check of run.py's merge of an untraced run's processes.

    python3 perfbench/test/test_merge.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from run import merge  # noqa: E402


def process(setups, capacity, attempted, failed, stalls, ok=True):
    return {
        "workload": "w", "seed": 1, "trace": 0, "correct": ok,
        "attempted": attempted, "failed": failed,
        "setup_s_samples": setups,
        "gates": [{"what": "g", "ok": ok}],
        "metrics": {
            "setup_s": {"value": 0.0, "unit": "s", "n": len(setups)},
            "capacity_ops_s": {"value": capacity, "unit": "ops/s", "n": 10},
            "fail_ratio": {"value": 0.0, "unit": "ratio", "n": attempted},
            "sync.stalled_touches": {"value": stalls, "unit": "count", "n": 1},
        },
    }


class MergeTest(unittest.TestCase):
    def setUp(self):
        self.merged = merge([process([1.0, 2.0], 100.0, 10, 1, 0),
                             process([3.0, 4.0, 5.0], 300.0, 30, 0, 2),
                             process([6.0], 200.0, 60, 3, 1)])

    def test_setup_is_the_median_over_every_build(self):
        m = self.merged["metrics"]["setup_s"]
        self.assertEqual(m["value"], 3.5)
        self.assertEqual(m["n"], 6)

    def test_other_metrics_are_medians_over_processes(self):
        m = self.merged["metrics"]["capacity_ops_s"]
        self.assertEqual(m["value"], 200.0)
        self.assertEqual(m["n"], 30)

    def test_counts_and_attempts_are_summed(self):
        self.assertEqual(self.merged["attempted"], 100)
        self.assertEqual(self.merged["failed"], 4)
        self.assertEqual(self.merged["metrics"]["sync.stalled_touches"]["value"], 3)
        self.assertAlmostEqual(self.merged["metrics"]["fail_ratio"]["value"], 0.04)

    def test_one_failed_process_fails_the_run(self):
        merged = merge([process([1.0], 1.0, 1, 0, 0),
                        process([1.0], 1.0, 1, 0, 0, ok=False)])
        self.assertFalse(merged["correct"])
        self.assertEqual(len(merged["gates"]), 2)


if __name__ == "__main__":
    unittest.main()
