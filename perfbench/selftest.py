#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic and input generation.

    python3 perfbench/selftest.py

The arithmetic cases also run at the start of every perfbench/run.py
invocation (they take milliseconds). The determinism cases build the
program and check that gen-serve writes the same checkpoint and payloads
for the same seed, and different ones for another seed.
"""

import filecmp
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = list(range(1, 1001))
        self.assertEqual(bl.percentile(xs, 50), 500.5)
        self.assertAlmostEqual(bl.percentile(xs, 99), 990.01)

    def test_needs_ten_samples_beyond(self):
        bl.percentile(range(1000), 99)  # exactly 10 beyond p99
        with self.assertRaises(ValueError):
            bl.percentile(range(999), 99)
        with self.assertRaises(ValueError):
            bl.percentile(range(19), 50)
        with self.assertRaises(ValueError):
            bl.percentile([], 50)

    def test_order_does_not_matter(self):
        self.assertEqual(bl.percentile([5, 1, 4, 2, 3] * 10, 50), 3)


class SubWindows(unittest.TestCase):
    def test_median_rate(self):
        self.assertEqual(bl.window_rate([10, 30, 20], 0.5), 40.0)
        self.assertEqual(bl.window_rate([10, 30, 20, 40], 1.0), 25.0)

    def test_rejects_empty(self):
        with self.assertRaises(ValueError):
            bl.window_rate([], 1.0)

    def test_window_percentile_is_median_of_windows(self):
        values = list(range(100)) + list(range(100, 200)) + [1000] * 100
        labels = [0] * 100 + [1] * 100 + [2] * 100
        # p50 per window: 49.5, 149.5, 1000; the stalled window 2 is the
        # outlier, so the median is window 1's.
        self.assertEqual(bl.window_percentile(values, labels, [0, 1, 2], 50),
                         149.5)
        self.assertEqual(bl.window_percentile(values, labels, [0], 50), 49.5)
        with self.assertRaises(ValueError):
            bl.window_percentile(values, labels, [0], 95)  # 5 beyond p95
        with self.assertRaises(ValueError):
            bl.window_percentile(values, labels, [], 50)

    def test_alternating_ratio(self):
        self.assertEqual(bl.alternating_ratio([10, 9, 20, 18, 30, 27]), 0.9)
        with self.assertRaises(ValueError):
            bl.alternating_ratio([5])


class StealAware(unittest.TestCase):
    def test_least_stolen(self):
        self.assertEqual(bl.least_stolen([0.3, 0.0, 0.1, 0.0, 0.2], 3),
                         [1, 2, 3])
        self.assertEqual(bl.least_stolen([0.0, 0.0, 0.0, 0.0], 2), [0, 1])
        self.assertEqual(bl.least_stolen([0.5], 1), [0])
        with self.assertRaises(ValueError):
            bl.least_stolen([0.1, 0.2], 3)
        with self.assertRaises(ValueError):
            bl.least_stolen([0.1], 0)

    def test_select_by_window(self):
        self.assertEqual(bl.select([1, 2, 3, 4], [0, 1, 1, 2], [1, 2]),
                         [2, 3, 4])


class ProcParsers(unittest.TestCase):
    STAT = ("cpu  100 5 50 800 10 1 2 32 7 0\n"
            "cpu0 25 1 12 200 2 0 1 8 0 0\n"
            "intr 12345\n")

    def test_proc_stat(self):
        d = bl.parse_proc_stat(self.STAT)
        self.assertEqual(d["user"], 100)
        self.assertEqual(d["steal"], 32)
        self.assertEqual(d["guest"], 7)

    def test_steal_share_excludes_guest(self):
        before = bl.parse_proc_stat(self.STAT)
        after = dict(before, user=before["user"] + 60,
                     idle=before["idle"] + 20, steal=before["steal"] + 20,
                     guest=before["guest"] + 60)
        self.assertAlmostEqual(bl.steal_frac(before, after), 0.2)
        self.assertEqual(bl.steal_frac(before, before), 0.0)

    def test_pid_stat_with_odd_command(self):
        fields = ["S", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10",
                  "250", "50"] + ["0"] * 30
        text = "4242 (sqvae serve) x) " + " ".join(fields)
        self.assertAlmostEqual(bl.parse_pid_stat(text, 100), 3.0)

    def test_status(self):
        st = bl.parse_status("Name:\tsqvae_serve\nVmHWM:\t  2048 kB\n"
                             "voluntary_ctxt_switches:\t7\n")
        self.assertEqual(st["VmHWM"], 2048)
        self.assertEqual(st["voluntary_ctxt_switches"], 7)
        self.assertNotIn("Name", st)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(i, start, end, parent=-1):
        return {"name": "s%d" % i, "start": start, "end": end, "tid": 0,
                "span": i, "parent": parent, "id": 0}

    def test_union_of_intervals(self):
        self.assertEqual(bl.covered([(10, 30), (20, 50), (60, 70)]), 50)
        self.assertEqual(bl.covered([]), 0)

    def test_children_overlap_counted_once(self):
        spans = [self.span(0, 0, 100), self.span(1, 10, 30, 0),
                 self.span(2, 20, 50, 0), self.span(3, 60, 70, 0),
                 self.span(4, 65, 68, 3)]
        st = bl.self_times(spans)
        self.assertEqual(st[0], 50)
        self.assertEqual(st[3], 7)
        self.assertEqual(st[4], 3)

    def test_child_clipped_to_parent(self):
        st = bl.self_times([self.span(0, 0, 10), self.span(1, 5, 20, 0)])
        self.assertEqual(st[0], 5)


class GeneratedInputs(unittest.TestCase):
    """Same seed, same checkpoint and payloads; another seed, others."""

    def test_gen_serve_is_deterministic(self):
        import run
        run.build()
        base = os.path.join(run.OUT_ROOT, "selftest")
        shutil.rmtree(base, ignore_errors=True)
        for geometry in ("sq-vae-ligand",):
            dirs = []
            for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
                d = os.path.join(base, geometry + tag)
                os.makedirs(d)
                run.cli("gen-serve", "--geometry=" + geometry,
                           "--seed=%d" % seed, "--dir=" + d)
                dirs.append(d)
            for name in ("model.ckpt", "payloads.txt"):
                a, b, c = (os.path.join(d, name) for d in dirs)
                self.assertTrue(filecmp.cmp(a, b, shallow=False), name)
                self.assertFalse(filecmp.cmp(a, c, shallow=False), name)
        shutil.rmtree(base, ignore_errors=True)


ARITHMETIC = (Percentiles, SubWindows, StealAware, ProcParsers, SelfTime)


def arithmetic_ok():
    """Runs the arithmetic cases quietly; True when all pass."""
    suite = unittest.TestSuite(
        unittest.defaultTestLoader.loadTestsFromTestCase(c)
        for c in ARITHMETIC)
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink, verbosity=0).run(suite)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
