#!/usr/bin/env python3
"""Unit tests for tools/bench_guard.py (run in CI by the soak-smoke job:
`python3 tools/bench_guard_test.py`). Covers the gate's contract: release
builds only, drift within tolerance, zero-baseline handling, multiple
--current/--baseline pairs, and the soak counters."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_guard  # noqa: E402


def doc(build_type="release", benchmarks=None):
    return {
        "context": {"library_build_type": build_type},
        "benchmarks": benchmarks if benchmarks is not None else [],
    }


def bench(name, run_type="iteration", **counters):
    entry = {"name": name, "run_type": run_type}
    entry.update(counters)
    return entry


class BenchGuardTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.n = 0

    def write(self, document):
        self.n += 1
        path = os.path.join(self.tmp.name, f"bench{self.n}.json")
        with open(path, "w") as f:
            json.dump(document, f)
        return path

    def run_main(self, argv):
        old_argv = sys.argv
        sys.argv = ["bench_guard.py"] + argv
        try:
            return bench_guard.main()
        finally:
            sys.argv = old_argv

    def guard(self, current, baseline, tolerance=0.10):
        return self.run_main([
            "--current", self.write(current),
            "--baseline", self.write(baseline),
            "--tolerance", str(tolerance),
        ])

    def test_identical_counters_pass(self):
        d = doc(benchmarks=[bench("soak/smoke/seed11", peak_bytes=1000,
                                  max_series=50, dropped_scrapes=7)])
        self.assertEqual(self.guard(d, d), 0)

    def test_small_drift_within_tolerance_passes(self):
        cur = doc(benchmarks=[bench("b", points_scanned=105)])
        base = doc(benchmarks=[bench("b", points_scanned=100)])
        self.assertEqual(self.guard(cur, base, tolerance=0.10), 0)

    def test_drift_beyond_tolerance_fails(self):
        cur = doc(benchmarks=[bench("b", peak_bytes=200)])
        base = doc(benchmarks=[bench("b", peak_bytes=100)])
        self.assertEqual(self.guard(cur, base, tolerance=0.10), 1)

    def test_debug_current_build_is_fatal(self):
        d = doc("debug", [bench("b", peak_bytes=1)])
        self.assertEqual(self.guard(d, doc(benchmarks=[bench("b",
                                                             peak_bytes=1)])),
                         1)

    def test_debug_baseline_is_fatal(self):
        good = doc(benchmarks=[bench("b", peak_bytes=1)])
        bad = doc("debug", [bench("b", peak_bytes=1)])
        self.assertEqual(self.guard(good, bad), 1)

    def test_nothing_compared_is_fatal(self):
        # Counter names outside GUARDED_COUNTERS never gate.
        cur = doc(benchmarks=[bench("b", wall_time_ns=123)])
        base = doc(benchmarks=[bench("b", wall_time_ns=456)])
        self.assertEqual(self.guard(cur, base), 1)

    def test_zero_baseline_zero_current_passes(self):
        d = doc(benchmarks=[bench("b", dropped_scrapes=0)])
        self.assertEqual(self.guard(d, d), 0)

    def test_zero_baseline_nonzero_current_fails(self):
        cur = doc(benchmarks=[bench("b", dropped_scrapes=3)])
        base = doc(benchmarks=[bench("b", dropped_scrapes=0)])
        self.assertEqual(self.guard(cur, base), 1)

    def test_missing_baseline_entry_is_note_not_failure(self):
        cur = doc(benchmarks=[bench("new", peak_bytes=5),
                              bench("old", peak_bytes=5)])
        base = doc(benchmarks=[bench("old", peak_bytes=5)])
        self.assertEqual(self.guard(cur, base), 0)

    def test_aggregate_rows_are_skipped(self):
        cur = doc(benchmarks=[bench("b", peak_bytes=100),
                              bench("b_mean", run_type="aggregate",
                                    peak_bytes=999999)])
        base = doc(benchmarks=[bench("b", peak_bytes=100)])
        self.assertEqual(self.guard(cur, base), 0)

    def test_soak_counters_are_guarded(self):
        for counter in ("peak_bytes", "max_series", "dropped_scrapes",
                        "samples_ingested", "points_scanned",
                        "query_points_p99"):
            self.assertIn(counter, bench_guard.GUARDED_COUNTERS)
            cur = doc(benchmarks=[bench("b", **{counter: 300})])
            base = doc(benchmarks=[bench("b", **{counter: 100})])
            self.assertEqual(self.guard(cur, base), 1, counter)

    def test_rule_pass_wal_counters_are_guarded(self):
        base = doc(benchmarks=[bench("BM_rule_pass_wal",
                                     wal_groups_per_pass=38,
                                     rule_samples_per_pass=2688)])
        self.assertEqual(self.guard(base, base), 0)
        # Per-sample WAL records again: one group per output sample.
        per_sample = doc(benchmarks=[bench("BM_rule_pass_wal",
                                           wal_groups_per_pass=2688,
                                           rule_samples_per_pass=2688)])
        self.assertEqual(self.guard(per_sample, base), 1)
        # A rule silently writing nothing moves the sample count.
        fewer = doc(benchmarks=[bench("BM_rule_pass_wal",
                                      wal_groups_per_pass=37,
                                      rule_samples_per_pass=2560)])
        self.assertEqual(self.guard(fewer, base), 1)

    def test_rule_pass_graph_counters_are_guarded(self):
        base = doc(benchmarks=[bench("BM_rule_pass_graph",
                                     wal_records_per_pass=38,
                                     rule_samples_per_pass=2688)])
        self.assertEqual(self.guard(base, base), 0)
        # A rule skipped by the scheduler logs one record fewer.
        skipped = doc(benchmarks=[bench("BM_rule_pass_graph",
                                        wal_records_per_pass=37,
                                        rule_samples_per_pass=2688)])
        self.assertEqual(self.guard(skipped, base), 1)

    def test_scrape_sweep_wal_records_are_guarded(self):
        base = doc(benchmarks=[bench("BM_scrape_sweep_wal",
                                     wal_records_per_sweep=32)])
        self.assertEqual(self.guard(base, base), 0)
        # Per-target appends again: two records per target.
        per_target = doc(benchmarks=[bench("BM_scrape_sweep_wal",
                                           wal_records_per_sweep=512)])
        self.assertEqual(self.guard(per_target, base), 1)
        # A shard's writes split into one more record.
        split = doc(benchmarks=[bench("BM_scrape_sweep_wal",
                                      wal_records_per_sweep=33)])
        self.assertEqual(self.guard(split, base), 1)

    def test_updater_selects_per_cycle_are_guarded(self):
        base = doc(benchmarks=[bench("BM_updater_cycle_db",
                                     db_syncs_per_cycle=1,
                                     selects_per_cycle=8)])
        self.assertEqual(self.guard(base, base), 0)
        # One more read per cycle, e.g. a metric read twice.
        extra = doc(benchmarks=[bench("BM_updater_cycle_db",
                                      db_syncs_per_cycle=1,
                                      selects_per_cycle=9)])
        self.assertEqual(self.guard(extra, base), 1)
        # A read per unit: 256 units.
        per_unit = doc(benchmarks=[bench("BM_updater_cycle_db",
                                         db_syncs_per_cycle=1,
                                         selects_per_cycle=8 * 256)])
        self.assertEqual(self.guard(per_unit, base), 1)

    def test_rule_pass_allocs_are_guarded(self):
        for name in ("BM_rule_pass_wal", "BM_rule_pass_graph"):
            base = doc(benchmarks=[bench(name, allocs_per_rule_sample=8.25)])
            self.assertEqual(self.guard(base, base), 0)
            # Scheduling jitter in the graph pass's dispatch.
            jitter = doc(benchmarks=[bench(name,
                                           allocs_per_rule_sample=8.9)])
            self.assertEqual(self.guard(jitter, base), 0, name)
            # String labels per selected series and per sample again.
            strings = doc(benchmarks=[bench(name,
                                            allocs_per_rule_sample=35.7)])
            self.assertEqual(self.guard(strings, base), 1, name)

    def test_longterm_footprint_counters_are_guarded(self):
        base = doc(benchmarks=[bench("BM_longterm_footprint",
                                     longterm_raw_bytes_per_hot_byte=0,
                                     sync_samples=60000)])
        self.assertEqual(self.guard(base, base), 0)
        # A long-term store keeping its own raw copy again.
        copy = doc(benchmarks=[bench("BM_longterm_footprint",
                                     longterm_raw_bytes_per_hot_byte=1.0,
                                     sync_samples=60000)])
        self.assertEqual(self.guard(copy, base), 1)
        # A sync that misses samples moves the count.
        missed = doc(benchmarks=[bench("BM_longterm_footprint",
                                       longterm_raw_bytes_per_hot_byte=0,
                                       sync_samples=57000)])
        self.assertEqual(self.guard(missed, base), 1)

    def test_longterm_select_history_counter_is_guarded(self):
        base = doc(benchmarks=[bench("BM_longterm_select_history",
                                     ladder_series_per_select=2000)])
        self.assertEqual(self.guard(base, base), 0)
        # A history read visiting the level twice.
        twice = doc(benchmarks=[bench("BM_longterm_select_history",
                                      ladder_series_per_select=4000)])
        self.assertEqual(self.guard(twice, base), 1)
        # Within the 1% gate, and just past it.
        near = doc(benchmarks=[bench("BM_longterm_select_history",
                                     ladder_series_per_select=2019)])
        self.assertEqual(self.guard(near, base), 0)
        past = doc(benchmarks=[bench("BM_longterm_select_history",
                                     ladder_series_per_select=2021)])
        self.assertEqual(self.guard(past, base), 1)

    def test_exporter_render_counters_are_guarded(self):
        base = doc(benchmarks=[bench("BM_exporter_render_fleet",
                                     allocs_per_rendered_sample=2.0,
                                     exposition_bytes_per_render=9000)])
        self.assertEqual(self.guard(base, base), 0)
        # A temporary string per label value and per number again.
        temps = doc(benchmarks=[bench("BM_exporter_render_fleet",
                                      allocs_per_rendered_sample=4.5,
                                      exposition_bytes_per_render=9000)])
        self.assertEqual(self.guard(temps, base), 1)
        # Values written with more digits than the shortest round trip.
        longer = doc(benchmarks=[bench("BM_exporter_render_fleet",
                                       allocs_per_rendered_sample=2.0,
                                       exposition_bytes_per_render=9400)])
        self.assertEqual(self.guard(longer, base), 1)
        # Within both gates.
        near = doc(benchmarks=[bench("BM_exporter_render_fleet",
                                     allocs_per_rendered_sample=2.03,
                                     exposition_bytes_per_render=9080)])
        self.assertEqual(self.guard(near, base), 0)

    def test_hot_series_overhead_counters_are_guarded(self):
        base = doc(benchmarks=[bench("BM_hot_series_overhead",
                                     heap_bytes_per_new_series=260,
                                     allocs_per_new_series=2.7,
                                     approx_to_heap_ratio=0.95)])
        self.assertEqual(self.guard(base, base), 0)
        # String labels stored with every series again.
        labels = doc(benchmarks=[bench("BM_hot_series_overhead",
                                       heap_bytes_per_new_series=900,
                                       allocs_per_new_series=13.6,
                                       approx_to_heap_ratio=0.95)])
        self.assertEqual(self.guard(labels, base), 1)
        # One more allocation per series (a hash node per series).
        node = doc(benchmarks=[bench("BM_hot_series_overhead",
                                     heap_bytes_per_new_series=260,
                                     allocs_per_new_series=3.7,
                                     approx_to_heap_ratio=0.95)])
        self.assertEqual(self.guard(node, base), 1)
        # approx_bytes forgetting the postings.
        blind = doc(benchmarks=[bench("BM_hot_series_overhead",
                                      heap_bytes_per_new_series=260,
                                      allocs_per_new_series=2.7,
                                      approx_to_heap_ratio=0.80)])
        self.assertEqual(self.guard(blind, base), 1)
        # Within all three gates.
        near = doc(benchmarks=[bench("BM_hot_series_overhead",
                                     heap_bytes_per_new_series=264,
                                     allocs_per_new_series=2.74,
                                     approx_to_heap_ratio=0.96)])
        self.assertEqual(self.guard(near, base), 0)

    def test_multiple_pairs_all_pass(self):
        tsdb = doc(benchmarks=[bench("t", points_scanned_per_query=10)])
        soak = doc(benchmarks=[bench("s", peak_bytes=10)])
        code = self.run_main([
            "--current", self.write(tsdb), "--baseline", self.write(tsdb),
            "--current", self.write(soak), "--baseline", self.write(soak),
        ])
        self.assertEqual(code, 0)

    def test_multiple_pairs_one_failing_fails(self):
        ok = doc(benchmarks=[bench("t", points_scanned_per_query=10)])
        cur = doc(benchmarks=[bench("s", peak_bytes=500)])
        base = doc(benchmarks=[bench("s", peak_bytes=100)])
        code = self.run_main([
            "--current", self.write(ok), "--baseline", self.write(ok),
            "--current", self.write(cur), "--baseline", self.write(base),
        ])
        self.assertEqual(code, 1)

    def test_mismatched_pair_counts_fail(self):
        d = self.write(doc(benchmarks=[bench("b", peak_bytes=1)]))
        code = self.run_main(["--current", d, "--current", d,
                              "--baseline", d])
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
