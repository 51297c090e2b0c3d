#!/usr/bin/env python3
"""Self-tests of tools/ab.py: the verdict rule, the parser of perfbench's
raw-CPU note lines, and the host-speed lines printed under cpu_us_per_op.

Run from anywhere: ``python3 tools/test_ab.py``.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

# Standard output of `perfbench --workload fit --seed 3 --seconds 5 --trace 0`.
FIT_STDOUT = """\
workload fit seed 3 seconds 5: 2 chains, each on its own Region A world at scale 0.1, DpmhbpConfig::default() on Critical pipes
fit wall (s): 0.180 0.141; cpu per fit 160799 us at host speed 1.5216 (mean of 1 samples), 105675 us at the reference speed; AUC: 0.8228 0.9143; min ESS: 10.2 22.2
diagnostics (not gated): ESS per second 100.928 over 0.32 s of fitting; world sizes 393p/5884s 393p/5811s
host: nproc 2, steal 0.00% of CPU ticks, 2 nonvoluntary context switches
memory: 4.9 MB resident when the high-water mark was reset, peak 5.9 MB
setup cycles: cpu (s) 0.0784 0.0832 0.0806 0.0803 0.0756 0.0796 0.0808 0.0527 0.0531; host speed 1.5050 1.6455 1.7043 1.6967 1.6318 1.6389 1.8310 1.3470 1.3542; wall (s) 0.0785 0.0832 0.0806 0.0803 0.0756 0.0796 0.0808 0.0527 0.0535
metric setup_s = 0.04730098805817602 s
metric cpu_us_per_op = 105674.89402904316 us
metric peak_rss_mb = 5.87890625 MB
metric quality_pct = 86.85856658184905 %
operations attempted 2 failed 0 correct true
{"correct": true, "attempted": 2, "failed": 0, "metrics": {"setup_s": {"value": 0.04730098805817602, "unit": "s"}, "cpu_us_per_op": {"value": 105674.89402904316, "unit": "us"}, "peak_rss_mb": {"value": 5.87890625, "unit": "MB"}, "quality_pct": {"value": 86.85856658184905, "unit": "%"}}}
"""

# Standard output of `perfbench --workload lookup --seed 1 --seconds 3 --trace 0`.
LOOKUP_STDOUT = """\
workload lookup seed 1 seconds 3: offered 5930 req/s, 17791 requests, 16002 distinct keys, 10.1% repeated keys
generator: 1 thread, 2 pipelined keep-alive connections, 176 reconnects, 0 requests re-sent, lateness p50 11.6 us p99 137.3 us
diagnostics (not gated): latency from schedule p99 506.8 us (177 samples beyond), p99.9 1781.8 us (17 samples beyond), of 17791 samples
host: nproc 2, steal 0.00% of CPU ticks, 1356 nonvoluntary context switches, phase 3.00 s
latency p50 55.6 us from dispatch in 150 of 150 steal-free windows (17791 requests); over all windows 55.6 us from dispatch, 69.8 us from schedule
server cpu 40.19 us per request (process minus generator and speed probe threads, whole phase) at host speed 1.6664 (mean of 11 samples): 24.12 us at the reference speed
memory: 47.5 MB resident when the high-water mark was reset, peak 53.6 MB
failures: 0 non-200, 0 mismatched bodies, 0 timeouts; first set-up answer correct true; reloads 0 of 0 republishes, 0 reload failures
setup cycles: cpu (s) 0.4752 0.4619 0.4168 0.4253 0.4206 0.4088 0.3112; host speed 1.9382 1.9697 2.0285 1.9346 1.9318 1.9447 1.5236; wall (s) 0.4673 0.4666 0.4383 0.4399 0.4333 0.4255 0.3266
metric setup_s = 0.21774704852744337 s
metric cpu_us_per_op = 24.1206200922612 us
metric peak_rss_mb = 53.62890625 MB
metric quality_pct = 100 %
operations attempted 17791 failed 0 correct true
{"correct": true, "attempted": 17791, "failed": 0, "metrics": {"setup_s": {"value": 0.21774704852744337, "unit": "s"}, "cpu_us_per_op": {"value": 24.1206200922612, "unit": "us"}, "peak_rss_mb": {"value": 53.62890625, "unit": "MB"}, "quality_pct": {"value": 100, "unit": "%"}}}
"""


def notes_of(stdout):
    """The note lines `run_once` keeps: every stdout line but the last."""
    return stdout.strip().splitlines()[:-1]


class RawCpuNotes(unittest.TestCase):
    def test_fit_note(self):
        self.assertEqual(ab.raw_cpu_and_speed(notes_of(FIT_STDOUT)), (160799.0, 1.5216))

    def test_serving_note(self):
        self.assertEqual(ab.raw_cpu_and_speed(notes_of(LOOKUP_STDOUT)), (40.19, 1.6664))

    def test_setup_speeds_alone_are_not_read(self):
        setup = [line for line in notes_of(LOOKUP_STDOUT) if line.startswith("setup cycles")]
        self.assertEqual(len(setup), 1)
        self.assertIsNone(ab.raw_cpu_and_speed(setup))

    def test_normalised_figure_is_raw_over_speed(self):
        # The metric the verdicts read is the note's raw CPU over its speed.
        for stdout, metric in ((FIT_STDOUT, 105674.89402904316), (LOOKUP_STDOUT, 24.1206200922612)):
            raw, speed = ab.raw_cpu_and_speed(notes_of(stdout))
            self.assertAlmostEqual(raw / speed / metric, 1.0, places=3)


class HostLines(unittest.TestCase):
    def test_medians_and_pairs_apart(self):
        base = [(100.0, 1.0), (110.0, 2.0), (90.0, 1.5)]
        change = [(50.0, 1.1), (60.0, 1.2), None]
        lines = ab.host_lines(base, change, [1, 2, 3], 0.25)
        self.assertEqual(lines[0].split()[2:4], ["100", "55"])
        self.assertEqual(lines[1].split()[2:4], ["1.5", "1.15"])
        # Seed 1 is 10% apart, seed 2 is 67% apart, seed 3 has no reading.
        self.assertEqual(lines[2], "  host speeds more than 25% apart: seed 2 (2 vs 1.2)")

    def test_no_pair_apart_and_no_readings(self):
        lines = ab.host_lines([None, (1.0, 1.3)], [None, (1.0, 1.4)], [1, 2], 0.25)
        self.assertEqual(len(lines), 2)
        self.assertEqual(ab.host_lines([None], [None], [1], 0.25)[0].split()[2:4], ["n/a", "n/a"])


class Verdict(unittest.TestCase):
    def test_gain(self):
        base = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]
        change = [60, 61, 59, 62, 58, 60, 61, 59, 60, 62]
        b, c, wins, word = ab.verdict(base, change, "lower", 0.25)
        self.assertEqual((wins, word), (10, "gain"))
        self.assertEqual(b[0], 100)
        self.assertEqual(c[0], 60)

    def test_gain_needs_nine_in_ten_wins(self):
        base = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]
        change = [90, 91, 89, 92, 88, 90, 110, 120, 90, 92]
        _, _, wins, word = ab.verdict(base, change, "lower", 0.25)
        self.assertEqual((wins, word), (8, "no worse"))

    def test_worse_beyond_the_bound(self):
        _, _, _, word = ab.verdict([100, 100, 100, 100], [130, 131, 129, 130], "lower", 0.25)
        self.assertEqual(word, "worse")

    def test_higher_is_better(self):
        _, _, wins, word = ab.verdict([80, 80, 80, 80], [50, 50, 50, 50], "higher", 0.15)
        self.assertEqual((wins, word), (0, "worse"))

    def test_unresolved_when_spread_exceeds_the_bound(self):
        base = [100, 50, 150, 100]
        change = [110, 40, 160, 90]
        _, _, _, word = ab.verdict(base, change, "lower", 0.25)
        self.assertEqual(word, "unresolved")

    def test_wide_spread_but_separated_is_resolved(self):
        base = [200, 150, 300, 250]
        change = [60, 40, 80, 70]
        _, _, wins, word = ab.verdict(base, change, "lower", 0.25)
        self.assertEqual((wins, word), (4, "gain"))

    def test_ties_count_for_neither_side(self):
        _, _, wins, word = ab.verdict([10, 10, 10], [10, 10, 10], "lower", 0.25)
        self.assertEqual((wins, word), (0, "no worse"))


if __name__ == "__main__":
    unittest.main()
