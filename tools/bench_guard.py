#!/usr/bin/env python3
"""Benchmark regression guard for deterministic work counters.

Compares the counters a fresh benchmark/soak run emitted against the
committed baseline (BENCH_tsdb.json, BENCH_soak.json) and fails when
either:

  * the fresh run's context says the binary was built without optimisations
    ("library_build_type": "debug") — a debug-recorded baseline once made
    every number in BENCH_tsdb.json meaningless, so this is a hard error
    regardless of counter values; or
  * a guarded counter drifted beyond tolerance from the baseline.

Only *deterministic work counters* are guarded (points scanned, chunks
decoded, bytes per sample, peak bytes, series cardinality, dropped
scrapes) — never wall-clock time, which is hopeless on shared CI runners.
The counters are exact functions of the workload and the code, so drift
means a real behaviour change: e.g. the resolution-aware planner silently
falling back to raw scans shows up as points_scanned_per_query jumping
20x, and a broken retention purge shows up as peak_bytes climbing, far
outside any tolerance.

Benchmarks present in only one file are reported but not fatal (new
benchmarks land before their baseline is re-recorded; retired ones linger
in the baseline until then).

--current/--baseline may be repeated to gate several pairs in one
invocation (pairs are matched by position); the run fails if any pair
fails.

Usage:
  bench_guard.py --current build/bench/BENCH_tsdb_smoke.json \
                 --baseline BENCH_tsdb.json \
                 [--current build/BENCH_soak_fresh.json \
                  --baseline BENCH_soak.json] [--tolerance 0.1]
"""

import argparse
import json
import sys

# Counters that are deterministic functions of workload + code. The first
# group comes from bench_tsdb, the second from the soak harness
# (cli/ceems_soak.cpp). A value of None uses the --tolerance default; a
# float overrides it for that counter. Timing-derived rates are
# deliberately absent but one, a CPU-time rate with a wide explicit
# tolerance that exists to catch order-of-magnitude collapses (e.g. the
# scrape write path silently falling back to strict re-parsing), not to
# police scheduler jitter on shared CI runners.
GUARDED_COUNTERS = {
    "points_scanned_per_query": None,
    "decodes_per_query": None,
    "bytes_per_sample": None,
    "compression_ratio": None,
    "peak_bytes": None,
    "max_series": None,
    "dropped_scrapes": None,
    "samples_ingested": None,
    "points_scanned": None,
    "query_points_p99": None,
    # End-to-end scrape→append path (BM_scrape_ingest_e2e). Every run does
    # the same sweeps, so allocs_per_sample is near-exact. samples_per_second
    # is samples per process CPU-second (all threads) and only guards
    # against an order-of-magnitude collapse, such as the zero-copy parse
    # falling back to a strict re-parse of every line (~8x slower).
    "allocs_per_sample": 0.50,
    "samples_per_second": 0.75,
    # WAL-backed rule pass (BM_rule_pass_wal): one WAL group per rule that
    # wrote anything, and the samples those rules wrote. Every measured
    # pass does identical work, so both are exact and gated at 1%: one
    # rule going silent already fails, and falling back to per-sample
    # appends multiplies wal_groups_per_pass by about 70.
    "wal_groups_per_pass": 0.01,
    "rule_samples_per_pass": 0.01,
    # The same pass as a conflict graph on a pool (BM_rule_pass_graph):
    # concurrent batches may share a group commit, so the exact count is
    # WAL records, one per rule that wrote anything.
    "wal_records_per_pass": 0.01,
    # Scrape sweeps on a WAL-backed store (BM_scrape_sweep_wal): a sweep
    # writes one store shard at a time, logging at most two records per
    # shard (32). Exact, gated at 1%: per-target appends log two records
    # per target, 512 for the bench's 256 targets.
    "wal_records_per_sweep": 0.01,
    # Heap allocations per written rule sample in both rule-pass benches,
    # counted over evaluate_all only. Near-exact inline; the graph pass's
    # dispatch moves it by a few percent between runs (4.93 and 4.96 in
    # two Release runs; 8.3-8.5 while instant selectors still copied each
    # series' lookback window). String labels built per selected series
    # or per sample again multiply it several times over.
    "allocs_per_rule_sample": 0.10,
    # Updater cycle on a durable units DB (BM_updater_cycle_db): a cycle
    # is one batch, one log record and one sync. Exact, gated at 1%;
    # per-row commits would multiply it by the rows per cycle.
    "db_syncs_per_cycle": 0.01,
    # Its TSDB reads: one select per walked metric (three counters, four
    # gauges) and one of the emission factor, 8. Exact, gated at 1%; a
    # read per unit or per window would multiply it.
    "selects_per_cycle": 0.01,
    # Long-term footprint (BM_longterm_footprint): bytes the long-term
    # store holds beyond its ladder, per hot-store byte. 0 while recent
    # samples are read through the hot store; a second raw copy makes it
    # about 1, which the zero baseline fails. sync_samples counts what the
    # syncs saw, exactly.
    "longterm_raw_bytes_per_hot_byte": 0.01,
    "sync_samples": 0.01,
    # Long-term history read (BM_longterm_select_history): ladder series
    # one read checks. Exact: one scan of the finest level; a read that
    # visits a series twice, or a coarser level too, raises it.
    "ladder_series_per_select": 0.01,
    # Exporter render over a fixed fleet (BM_exporter_render_fleet). Every
    # render writes the same bytes, so both are exact: a changed value
    # format or a dropped series moves the bytes, and a per-label or
    # per-value temporary string (or a split() of a pseudo-file) comes back
    # as allocations per rendered sample.
    "allocs_per_rendered_sample": 0.02,
    "exposition_bytes_per_render": 0.01,
    # Hot series overhead (BM_hot_series_overhead): the live heap and the
    # allocations 100k new one-sample series leave in the store, per
    # series, and the share of that heap StorageStats::approx_bytes
    # accounts for. Exact for a given allocator: string labels stored per
    # series again add hundreds of bytes and a dozen allocations, and a
    # structure approx_bytes forgets moves the ratio.
    "heap_bytes_per_new_series": 0.02,
    "allocs_per_new_series": 0.02,
    "approx_to_heap_ratio": 0.02,
}


def load_benchmarks(path):
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for bench in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev) duplicate counter values;
        # keep plain iterations only.
        if bench.get("run_type") == "aggregate":
            continue
        runs[bench["name"]] = bench
    return doc.get("context", {}), runs


def check_pair(current_path, baseline_path, tolerance):
    """Gates one current/baseline pair. Returns (ok, compared)."""
    context, current = load_benchmarks(current_path)
    build_type = context.get("library_build_type")
    if build_type != "release":
        print(f"FAIL: current run context says library_build_type="
              f"{build_type!r}, expected 'release'. Re-run the benchmark "
              f"from a -DCMAKE_BUILD_TYPE=Release build.")
        return False, 0
    print(f"{current_path} vs {baseline_path} "
          f"(library_build_type: {build_type})")

    baseline_context, baseline = load_benchmarks(baseline_path)
    baseline_build = baseline_context.get("library_build_type")
    if baseline_build != "release":
        print(f"FAIL: committed baseline {baseline_path} was recorded from "
              f"a {baseline_build!r} build; re-record it from a Release "
              f"build.")
        return False, 0

    failures = []
    compared = 0
    for name, bench in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            print(f"note: {name} has no baseline entry (new benchmark?)")
            continue
        for counter, override in GUARDED_COUNTERS.items():
            if counter not in bench:
                continue
            if counter not in base:
                print(f"note: {name}: baseline lacks counter {counter}")
                continue
            limit = tolerance if override is None else override
            cur_v = float(bench[counter])
            base_v = float(base[counter])
            compared += 1
            if base_v == 0.0:
                drift = 0.0 if cur_v == 0.0 else float("inf")
            else:
                drift = abs(cur_v - base_v) / abs(base_v)
            status = "ok" if drift <= limit else "FAIL"
            print(f"{status}: {name} {counter}: current={cur_v:g} "
                  f"baseline={base_v:g} drift={drift:.1%} "
                  f"(limit {limit:.0%})")
            if drift > limit:
                failures.append((name, counter, cur_v, base_v, limit))

    for name in sorted(baseline):
        if name not in current:
            print(f"note: baseline entry {name} absent from current run "
                  f"(filtered out or retired)")

    if failures:
        print(f"\n{len(failures)} counter(s) drifted beyond tolerance:")
        for name, counter, cur_v, base_v, limit in failures:
            print(f"  {name} {counter}: {base_v:g} -> {cur_v:g} "
                  f"(limit {limit:.0%})")
        return False, compared
    return True, compared


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True, action="append",
                        help="JSON emitted by the fresh run (repeatable)")
    parser.add_argument("--baseline", required=True, action="append",
                        help="committed baseline JSON, one per --current")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max relative drift per counter (default 0.10)")
    args = parser.parse_args()

    if len(args.current) != len(args.baseline):
        print(f"FAIL: {len(args.current)} --current but "
              f"{len(args.baseline)} --baseline; pairs are positional")
        return 1

    all_ok = True
    total_compared = 0
    for current_path, baseline_path in zip(args.current, args.baseline):
        ok, compared = check_pair(current_path, baseline_path,
                                  args.tolerance)
        all_ok = all_ok and ok
        total_compared += compared
        print()

    if total_compared == 0:
        print("FAIL: no guarded counters compared — wrong file or filter?")
        return 1
    if not all_ok:
        return 1
    print(f"all {total_compared} guarded counters within tolerance "
          f"(default {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
