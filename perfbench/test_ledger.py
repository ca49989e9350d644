"""Unit tests of the ledger's pure logic.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import statistics
import unittest

import ledger
import run

HERE = os.path.dirname(os.path.abspath(__file__))


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        self.assertEqual(ledger.median(values), 5.5)
        self.assertEqual(ledger.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(ledger.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(ledger.iqr_share([2.5]), 0.0)

    def test_iqr_share_is_relative_to_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(ledger.iqr_share(values), (q3 - q1) / q2)

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 11))  # 1..10
        self.assertEqual(ledger.percentile(values, 0), 1)
        self.assertEqual(ledger.percentile(values, 100), 10)
        self.assertAlmostEqual(ledger.percentile(values, 50), 5.5)
        self.assertAlmostEqual(ledger.percentile(values, 90), 9.1)
        self.assertEqual(ledger.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            ledger.percentile([], 50)

    def test_beyond_counts_strictly_greater_samples(self):
        values = list(range(100))
        self.assertEqual(ledger.beyond(values, 90), 10)
        self.assertEqual(ledger.beyond([1.0] * 50, 90), 0)

    def test_highest_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(ledger.highest_supported_percentile(list(range(19))))
        self.assertEqual(ledger.highest_supported_percentile(list(range(21))), 50.0)
        self.assertEqual(ledger.highest_supported_percentile(list(range(90))), 50.0)
        self.assertEqual(ledger.highest_supported_percentile(list(range(100))), 90.0)
        self.assertEqual(ledger.highest_supported_percentile(list(range(1001))), 99.0)
        # Ties at the top leave nothing strictly beyond the percentile.
        self.assertEqual(ledger.highest_supported_percentile([0.0] * 80 + [1.0] * 200), None)


class Sections(unittest.TestCase):
    def test_split_keeps_order_and_trailing_newline(self):
        text = (
            "==================== a ====================\nreport a\n\n"
            "==================== b+c ====================\nline 1\nline 2\n\n"
        )
        self.assertEqual(
            ledger.split_sections(text),
            [("a", "report a\n\n"), ("b+c", "line 1\nline 2\n\n")],
        )

    def test_split_rejects_text_before_first_header_and_duplicates(self):
        with self.assertRaises(ValueError):
            ledger.split_sections("stray\n==================== a ====================\nx\n")
        with self.assertRaises(ValueError):
            ledger.split_sections("no headers at all\n")
        dup = "==================== a ====================\nx\n" * 2
        with self.assertRaises(ValueError):
            ledger.split_sections(dup)

    def test_golden_output_has_the_eighteen_experiments(self):
        with open(os.path.join(HERE, "..", "repro_output.txt"), encoding="utf-8") as f:
            text = f.read()
        sections = ledger.split_sections(text)
        self.assertEqual(len(sections), 18)
        self.assertEqual(sections[0][0], "table1")
        # Splitting loses nothing but the header lines.
        rebuilt = "".join(
            f"==================== {sid} ====================\n{body}" for sid, body in sections
        )
        self.assertEqual(rebuilt, text)


class RequestOrder(unittest.TestCase):
    IDS = [f"e{i}" for i in range(18)]

    def test_same_seed_and_sweep_give_the_same_order(self):
        self.assertEqual(
            ledger.request_order(7, 3, self.IDS), ledger.request_order(7, 3, self.IDS)
        )

    def test_order_is_a_permutation(self):
        order = ledger.request_order(7, 0, self.IDS)
        self.assertEqual(sorted(order), sorted(self.IDS))
        self.assertEqual(self.IDS, [f"e{i}" for i in range(18)], "input left untouched")

    def test_seed_and_sweep_change_the_order(self):
        base = ledger.request_order(1, 0, self.IDS)
        self.assertNotEqual(base, ledger.request_order(2, 0, self.IDS))
        self.assertNotEqual(base, ledger.request_order(1, 1, self.IDS))

    def test_order_is_pinned(self):
        # Seeds must keep meaning the same inputs across Python versions.
        self.assertEqual(
            ledger.request_order(1, 0, ["a", "b", "c", "d", "e"]),
            ["e", "d", "b", "c", "a"],
        )


class MetricNames(unittest.TestCase):
    def test_valid_names(self):
        for name in ["wall_s", "req_p50_ms", "uarch.prewarm_s", "bench.experiment_s.fig5-6_table6",
                     "9lives", "a" * 64]:
            self.assertEqual(ledger.check_name(name), name)

    def test_invalid_names(self):
        for name in ["", "_x", ".x", "-x", "a b", "fig5-6+table6", "x/y", "a" * 65, "é", None]:
            with self.assertRaises(ValueError, msg=repr(name)):
                ledger.check_name(name)


class Declaration(unittest.TestCase):
    PATH = os.path.join(HERE, "..", "BENCHMARK.json")

    def test_declared_names_are_valid_and_match_the_harness(self):
        declared = ledger.declared_metrics(self.PATH)
        result = run.Result()
        result.setup, result.units, result.ops, result.rss_mb = [1.0], [2.0], [2.0], [64.0]
        result.timed_s = 2.0
        self.assertEqual(set(result.metrics()), set(declared["end_to_end"]))
        self.assertIn("setup_s", declared["end_to_end"])
        with open(self.PATH, encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class References(unittest.TestCase):
    def test_every_reference_records_its_command(self):
        directory = os.path.join(HERE, "reference")
        for name in ("quick_cold", "sampled_replay"):
            text = ledger.read_reference(directory, name)
            self.assertEqual(len(ledger.split_sections(text)), 18)

    def test_reference_without_command_is_refused(self):
        with self.assertRaises(ValueError):
            ledger.read_reference(os.path.join(HERE, "reference"), "no_such_reference")


if __name__ == "__main__":
    unittest.main()
