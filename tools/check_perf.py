#!/usr/bin/env python
"""Perf gate: tier-1 tests + a throughput smoke vs the committed baseline.

Runs the full tier-1 suite, then a short (~5 s) run of
``benchmarks/bench_p1_throughput.py`` and compares batched/chained
elements-per-second against the committed ``benchmarks/BENCH_streaming.json``.
Fails (exit 1) if either regresses more than ``--tolerance`` (default
20%) — the guard that keeps future PRs from quietly giving back the
batched-execution win.

Also runs ``benchmarks/bench_p4_parallel.py`` and gates the *modelled*
parallel scaling: the keyed-window workload at parallelism 4 must model
at least ``--min-parallel-speedup`` (default 1.5x) over parallelism 1.
The gate is absolute, not baseline-relative — a modelled ratio is
machine-speed-robust, so any plan that stops overlapping subtask work
fails regardless of where it runs.

The committed baseline itself is also gated when it was produced on the
reference 100k-event workload: ``chained_eps`` must stay >= 1M and the
modelled ``lane_overlap_p4`` > 3.2 — the columnar hot-path floors a PR
cannot regress by committing a slower baseline.  A columnar-vs-
per-item-oracle equivalence smoke (identical sinks and operator
snapshots) runs in-process before any timing.

Usage:  python tools/check_perf.py [--events N] [--tolerance 0.2]
        python tools/check_perf.py --skip-tests   # bench gate only
"""

from __future__ import annotations

import argparse
import json
import sys

from gatelib import REPO, Gate, ensure_paths, run_bench, run_suite

try:
    import numpy  # noqa: F401  (presence check only)
except ImportError:  # pragma: no cover - environment guard
    sys.exit("check_perf: numpy is required for the perf gate (the "
             "columnar hot path and the benchmarks are numpy-based); "
             "install it with `pip install numpy>=1.24` and re-run "
             "`make perf`.")

BASELINE = REPO / "benchmarks" / "BENCH_streaming.json"
GATED = ["batched_eps", "chained_eps"]
#: Absolute floors for a committed baseline measured on the reference
#: workload (100k events): the columnar hot path must keep chained
#: throughput over 1M eps and parallelism-4 lane overlap above 3.2.
FLOOR_EVENTS = 100_000
FLOOR_CHAINED_EPS = 1_000_000
FLOOR_LANE_OVERLAP_P4 = 3.2


def run_bench_smoke(events: int) -> dict | None:
    print(f"\n== throughput smoke ({events} events) ==", flush=True)
    return run_bench("bench_p1_throughput.py", "--events", str(events))


def run_parallel_smoke(events: int) -> dict | None:
    print(f"\n== parallel scaling smoke ({events} events) ==", flush=True)
    return run_bench("bench_p4_parallel.py", "--events", str(events))


def check_parallel_speedup(current: dict, minimum: float,
                           min_lane_overlap: float) -> bool:
    speedup = current["parallel"]["speedup_p4"]
    overlap = current["parallel"]["lane_overlap_p4"]
    ok_speedup = speedup >= minimum
    ok_overlap = overlap >= min_lane_overlap
    print(f"\n== parallel scaling gate (minimum {minimum:.2f}x, "
          f"lane overlap {min_lane_overlap:.2f}) ==")
    print(f"     speedup_p4: {speedup:10.2f}x  (absolute floor "
          f"{minimum:.2f}x)  {'ok' if ok_speedup else 'TOO SLOW'}")
    print(f"  lane_overlap_p4: {overlap:8.2f}   (absolute floor "
          f"{min_lane_overlap:.2f})   "
          f"{'ok' if ok_overlap else 'TOO SERIAL'}")
    return ok_speedup and ok_overlap


def check_columnar_equivalence(events: int = 5_000) -> bool:
    """In-process smoke: the columnar representation must be invisible —
    the chained columnar run must give identical sink contents and
    identical operator snapshots to the per-item oracle (the same job
    run element by element, ``batch_mode=False, chaining=False``)."""
    print(f"\n== columnar equivalence smoke ({events} events) ==",
          flush=True)
    ensure_paths()
    from bench_p1_throughput import SOURCE_BATCH, _build_job, _elements
    from repro.streaming import Executor

    elements = _elements(events)
    runs = {}
    for label, batch_mode in (("columnar", True), ("per-item", False)):
        job = _build_job(elements)
        executor = Executor(job, batch_mode=batch_mode, chaining=batch_mode)
        sinks = executor.run(source_batch=SOURCE_BATCH)
        # The executor runs clones of the job's operators: snapshot
        # those, not the untouched templates in ``job.operators``.
        snapshots = {name: [op.snapshot()
                            for op in executor.subtask_operators(name)]
                     for name in sorted(job.operators)}
        runs[label] = ([(r.key, r.window.start, r.value, r.count)
                        for r in sinks["out"].values], snapshots)
    same_sinks = runs["columnar"][0] == runs["per-item"][0]
    same_state = runs["columnar"][1] == runs["per-item"][1]
    print(f"  sinks identical: {same_sinks}   "
          f"operator snapshots identical: {same_state}")
    return same_sinks and same_state


def check_committed_floors() -> bool:
    """Absolute floors on the *committed* baseline: when the numbers in
    ``BENCH_streaming.json`` were measured on the reference workload,
    they must clear the columnar hot-path targets — a PR cannot sneak a
    regression in by regenerating a slower baseline."""
    if not BASELINE.exists():
        return True
    baseline = json.loads(BASELINE.read_text())
    ok = True
    print("\n== committed baseline floors ==")
    if baseline.get("config", {}).get("n_events") == FLOOR_EVENTS:
        chained = baseline["throughput"]["chained_eps"]
        good = chained >= FLOOR_CHAINED_EPS
        ok = ok and good
        print(f"    chained_eps: {chained:12.0f}/s  (floor "
              f"{FLOOR_CHAINED_EPS}/s)  {'ok' if good else 'BELOW FLOOR'}")
    else:
        print(f"  (baseline not measured at {FLOOR_EVENTS} events; "
              "skipping chained_eps floor)")
    pconf = baseline.get("parallel_config", {})
    if pconf.get("n_events") == FLOOR_EVENTS and "parallel" in baseline:
        overlap = baseline["parallel"]["lane_overlap_p4"]
        good = overlap > FLOOR_LANE_OVERLAP_P4
        ok = ok and good
        print(f"  lane_overlap_p4: {overlap:8.2f}   (floor > "
              f"{FLOOR_LANE_OVERLAP_P4})   "
              f"{'ok' if good else 'BELOW FLOOR'}")
    else:
        print(f"  (parallel baseline not measured at {FLOOR_EVENTS} "
              "events; skipping lane_overlap_p4 floor)")
    return ok


def check_regression(current: dict, tolerance: float) -> bool:
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; run "
              "benchmarks/bench_p1_throughput.py to create one")
        return True
    baseline = json.loads(BASELINE.read_text())
    ok = True
    print(f"\n== regression gate (tolerance {tolerance:.0%}) ==")
    same_size = (current["config"]["n_events"]
                 == baseline["config"]["n_events"])
    if same_size:
        # Absolute throughput only compares like-for-like stream sizes
        # (fixed costs amortize differently on a smoke-sized stream).
        for key in GATED:
            base = baseline["throughput"][key]
            now = current["throughput"][key]
            ratio = now / base
            status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
            if status == "REGRESSED":
                ok = False
            print(f"  {key:>15}: baseline {base:12.0f}/s  "
                  f"now {now:12.0f}/s  ({ratio:6.1%})  {status}")
    else:
        print(f"  (stream sizes differ — {current['config']['n_events']} vs "
              f"baseline {baseline['config']['n_events']} — skipping "
              "absolute eps; speedup tolerance doubled, since fixed "
              "costs amortize less on a smoke-sized stream)")
    # Speedup vs the per-item baseline is a within-run ratio, robust to
    # machine speed; across stream sizes it shifts with amortization,
    # so the cross-size gate is loose where the like-size gate is not.
    speedup_tolerance = tolerance if same_size else 2 * tolerance
    for key in ("speedup_batched", "speedup_chained"):
        base = baseline["throughput"][key]
        now = current["throughput"][key]
        ratio = now / base
        status = "ok" if ratio >= 1.0 - speedup_tolerance else "REGRESSED"
        if status == "REGRESSED":
            ok = False
        print(f"  {key:>15}: baseline {base:10.2f}x   now {now:10.2f}x   "
              f"({ratio:6.1%})  {status}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=30_000,
                        help="smoke-run stream size (default keeps the "
                             "bench near 5 seconds; `make perf` passes "
                             "the reference 100000 for a like-for-like "
                             "baseline comparison)")
    parser.add_argument("--parallel-events", type=int, default=30_000,
                        help="parallel smoke stream size (kept small — "
                             "its gates are absolute ratios, and the "
                             "100k lane-overlap floor is enforced on "
                             "the committed baseline instead)")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--min-parallel-speedup", type=float, default=1.5)
    parser.add_argument("--min-lane-overlap", type=float, default=2.5,
                        help="absolute floor on the smoke run's modelled "
                             "lane_overlap_p4 (the committed 100k "
                             "baseline is separately floored at "
                             f"{FLOOR_LANE_OVERLAP_P4})")
    parser.add_argument("--skip-tests", action="store_true")
    args = parser.parse_args()

    gate = Gate("check_perf")
    if not args.skip_tests and not run_suite("tier-1 test suite",
                                             fail_fast=True):
        return gate.fail("tier-1 tests")
    if not check_columnar_equivalence():
        return gate.fail("columnar execution diverged")
    if not check_committed_floors():
        return gate.fail("committed baseline below floor")
    current = run_bench_smoke(args.events)
    if current is None:
        return gate.fail("benchmark crashed")
    if not check_regression(current, args.tolerance):
        return gate.fail("throughput regression")
    parallel = run_parallel_smoke(args.parallel_events)
    if parallel is None:
        return gate.fail("parallel benchmark crashed")
    if not check_parallel_speedup(parallel, args.min_parallel_speedup,
                                  args.min_lane_overlap):
        return gate.fail("parallel scaling below floor")
    return gate.ok()


if __name__ == "__main__":
    sys.exit(main())
