"""End-to-end wall-clock benchmark with per-layer attribution.

    python3 e2ebench/run.py --workload ward_python --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 15 --trace 0

Runs one workload through the public API — datagen -> Producer ->
LogCluster -> log_source -> engine -> checkpoint/2PC -> StoreSink ->
TieredStore, with point lookups and analytical queries after commits —
as a closed-loop batch in this one process, repeating it for
``--seconds`` after one warm-up iteration.  Each iteration rebuilds its
inputs from ``--seed`` and checks every output against the bench's own
reference.

``--trace 0`` prints the end-to-end metrics, each timing stated at the
reference host's speed (see :func:`host_probe`) with its raw wall-clock
value beside it; ``--trace 1`` alternates traced and untraced
iterations and prints the per-layer metrics, the self-time attribution
and the tracing overhead, and writes the spans to ``.e2ebench_out/``.
``--workload all`` runs every workload in turn and prefixes each metric
with its workload's name (``peak_rss_mb`` is then the process's peak so
far).  The last line of stdout is one JSON object; the exit code is
non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import pickle
import resource
import statistics
import sys
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # Benchmark the checkout's own sources, never an installed copy.
    sys.exit(f"e2ebench: no program sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from repro.chaos.harness import run_coordinated  # noqa: E402
from repro.eventlog import LogCluster, Producer, TopicConfig  # noqa: E402
from repro.streaming import DLQ_SINK  # noqa: E402
from repro.streaming.runtime import Executor  # noqa: E402

from probe import (  # noqa: E402
    LAYERS,
    SNAPSHOT_SUMMARY,
    ProbedStoreSink,
    Probe,
    TimedCheckpointStore,
)
from workloads import (  # noqa: E402
    ALERTS_SINK,
    STORE_SINK,
    TOPIC,
    WORKLOADS,
    Workload,
)

#: end-to-end metrics (untraced iterations) and their units
END_TO_END = {
    "events_per_s": "events/s",
    "staleness_p50_ms": "ms",
    "staleness_p75_ms": "ms",
    "lookup_p50_us": "us",
    "lookup_p99_us": "us",
    "query_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: per-layer metrics (traced runs) and their units
PER_LAYER = {
    "wall_s": "s",
    "eventlog.produce_s": "s",
    "eventlog.produce_records": "count",
    "eventlog.produce_bytes": "bytes",
    "eventlog.fetch_s": "s",
    "eventlog.fetch_records": "count",
    "streaming.engine_s": "s",
    "streaming.udf_s": "s",
    "streaming.op_s": "s",
    "streaming.out_records": "count",
    "streaming.dlq_records": "count",
    "streaming.alerts": "count",
    "checkpoint.finalized": "count",
    "checkpoint.aborted": "count",
    "checkpoint.finalize_s": "s",
    "checkpoint.snapshot_s": "s",
    "checkpoint.records_per_commit": "count",
    "store.stage_s": "s",
    "store.apply_s": "s",
    "store.rows_applied": "count",
    "store.distinct_keys": "count",
    "store.flushes": "count",
    "store.compactions": "count",
    "store.hot_runs": "count",
    "store.lookup_s": "s",
    "store.query_s": "s",
    "bench.hook_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.host_factor": "ratio",
    **{f"self.{layer}_pct": "%" for layer in LAYERS},
}
#: spans that run inside the executor call of a coordinated run
INSIDE_EXECUTOR = ("source", "finalize", "stage", "apply", "hook", "ledger")
MIN_ITERATIONS = 3
#: median :func:`host_probe` time on the reference host (a 2-vCPU
#: x86_64 VM, Python 3.11); end-to-end timings are scaled to it
REFERENCE_PROBE_S = 0.030


def host_probe() -> float:
    """Seconds one fixed piece of interpreter work takes right now.

    The work — build, group, sort and pickle 10k small dicts — calls no
    program code, so no change to the program can move it; it runs with
    the collector off, so the program's heap cannot either.  What moves
    it is the host: a shared VM's speed drifts by up to 3x over minutes
    as co-tenants come and go, and this work slows with it in step with
    the workloads (per-iteration correlation of log times 0.6-0.7,
    baseline.json findings).
    """
    gc.disable()
    try:
        t0 = perf_counter()
        rows = [{"key": f"p{i % 97}:v{i % 4}", "value": i * 0.5,
                 "seq": str(i)} for i in range(10_000)]
        groups: dict[str, list] = {}
        for r in rows:
            groups.setdefault(r["key"], []).append(r["value"])
        rows.sort(key=itemgetter("seq"))
        pickle.loads(pickle.dumps(rows))
        return perf_counter() - t0
    finally:
        gc.enable()


def iteration(wl: Workload, seed: int, index: int, scale: float,
              traced: bool, ref: dict, corrupt_row: bool = False
              ) -> dict[str, Any]:
    """Set up, produce, run, serve and verify once.  Every iteration
    replays the seed's inputs; the reader's lookup keys are drawn from
    ``(seed, index)``, so a run's lookups cover many key sequences."""
    gc.collect()
    probe = Probe(traced)
    t0 = perf_counter()
    inputs = wl.inputs(seed, scale)
    records = wl.records(inputs)
    cluster = LogCluster(num_brokers=3)
    cluster.create_topic(TopicConfig(TOPIC, partitions=8, replication=2))
    producer = Producer(cluster)
    job = wl.build(cluster, probe)
    store = wl.new_store()
    checkpoints = TimedCheckpointStore(probe) if wl.coordinated else None
    sink = ProbedStoreSink(
        store, probe, wl, sink_name=STORE_SINK,
        lookup_rng=np.random.default_rng((seed, index)),
        checkpoints=checkpoints)
    setup_s = perf_counter() - t0

    with probe.span("workload"):
        t_send = perf_counter()
        with probe.span("produce"):
            send = producer.send
            for value, key, ts in records:
                send(TOPIC, value, key=key, timestamp=ts)
        t_exec = perf_counter()
        with probe.span("executor"):
            if wl.coordinated:
                report = run_coordinated(
                    job, None, parallelism=wl.parallelism,
                    interval_cycles=wl.interval_cycles, store=checkpoints,
                    on_coordinator=sink.attach, profiler=probe.profiler())
                sinks = report.sink_values
                aborted = report.aborted
            else:
                result = Executor(job, profiler=probe.profiler()).run()
                sinks = {name: buf.values for name, buf in result.items()}
                aborted = 0
        t_done = perf_counter()
        inside = sum(probe.secs.get(k, 0.0) for k in INSIDE_EXECUTOR)
        if not wl.coordinated:
            # Publish the complete ad-hoc result for the overlay reader.
            sink.on_checkpoint_committed(1, result[STORE_SINK].elements)
    t_end = perf_counter()

    if corrupt_row:
        _corrupt_one_row(store)
    wl.verify(ref, store, sinks, probe)
    probe.check(probe.observer_calls == 0,
                f"{probe.observer_calls} latest()/verify() calls from hooks")

    events = len(records)
    if wl.coordinated:
        t_last, hook_last = probe.visible[-1]
        e2e_wall = (t_last - hook_last) - t_send
    else:
        e2e_wall = t_done - t_send
    gaps = []
    prev = t_exec
    for t, hook in probe.visible:
        gaps.append(((t - hook) - prev) * 1e3)
        prev = t - hook
    hot = store.stats()["hot"]["shards"]
    secs = probe.secs
    profiled = probe.profiled()
    op_s = profiled.get("op.wall_s", {})
    out = {
        "traced": traced,
        "setup_s": setup_s,
        "events_per_s": events / e2e_wall,
        "e2e_wall_s": e2e_wall,
        "staleness_ms": gaps,
        "lookup_us": probe.lookup_us,
        "query_ms": probe.query_ms,
        "attempted": probe.attempted,
        "failed": probe.failed,
        "failures": probe.failures,
        "layer": {
            "wall_s": t_end - t_send,
            "eventlog.produce_s": secs["produce"],
            "eventlog.produce_records": producer.sent,
            "eventlog.produce_bytes": producer.bytes_sent,
            "eventlog.fetch_s": secs.get("source", 0.0),
            "eventlog.fetch_records": probe.counts.get("fetch_records", 0),
            "streaming.engine_s": secs["executor"] - inside,
            "streaming.udf_s": secs.get("udf", 0.0),
            "streaming.op_s": sum(op_s.values()),
            "streaming.out_records": sum(len(v) for v in sinks.values()),
            "streaming.dlq_records": len(sinks.get(DLQ_SINK, ())),
            "streaming.alerts": len(sinks.get(ALERTS_SINK, ())),
            "checkpoint.finalized": probe.counts.get("finalized", 0),
            "checkpoint.aborted": aborted,
            "checkpoint.finalize_s": secs.get("finalize", 0.0),
            "checkpoint.snapshot_s": sum(
                profiled.get(SNAPSHOT_SUMMARY, {}).values()),
            "checkpoint.records_per_commit": (
                float(np.median(probe.records_per_commit))
                if probe.records_per_commit else 0.0),
            "store.stage_s": secs.get("stage", 0.0),
            "store.apply_s": secs.get("apply", 0.0),
            "store.rows_applied": probe.counts.get("rows_applied", 0),
            "store.distinct_keys": len(sink.ledger.keys),
            "store.flushes": sum(s["flushes"] for s in hot),
            "store.compactions": sum(s["compactions"] for s in hot),
            "store.hot_runs": sum(s["runs"] for s in hot),
            "store.lookup_s": sum(probe.lookup_us) / 1e6,
            "store.query_s": sum(probe.query_ms) / 1e3,
            "bench.hook_s": probe.hook_s,
        },
        "op_s": op_s,
    }
    if traced:
        out["self_s"], out["spans"] = probe.self_times()
    return out


def _corrupt_one_row(store: Any) -> None:
    """Self-test seam: overwrite one committed hot-store row in place
    with a value that is off by one."""

    def wrong(value: Any) -> Any:
        if isinstance(value, dict):
            return {**value, "x": value["x"] + 1.0}
        return dataclasses.replace(value, value=value.value + 1.0)

    for shard in store.hot.shards:
        for versions in shard._mem.values():
            if versions:
                ts, seq, value = versions[0]
                versions[0] = (ts, seq, wrong(value))
                return
        for run in shard._runs:
            if run.rows:
                row = run.rows[0]
                run.rows[0] = row[:4] + (wrong(row[4]),) + row[5:]
                return


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def end_to_end(untraced: list[dict], at_reference: bool = True
               ) -> dict[str, float]:
    """The end-to-end metrics of a run's untraced iterations.

    Latencies pool every sample of every iteration before taking the
    percentile, so each covers the whole run; throughput and
    ``setup_s`` are medians over the iterations.  With
    ``at_reference`` every timing is first scaled by its iteration's
    host factor (:func:`host_probe` time over ``REFERENCE_PROBE_S``),
    which states it at the reference host's speed and takes the host's
    drift out; without, the timings are raw wall clock.
    """
    def factor(r: dict) -> float:
        return r["host_factor"] if at_reference else 1.0

    def pooled(key: str, q: float) -> float:
        return _pct([v / factor(r) for r in untraced for v in r[key]], q)

    return {
        "events_per_s": statistics.median(
            r["events_per_s"] * factor(r) for r in untraced),
        "staleness_p50_ms": pooled("staleness_ms", 50),
        "staleness_p75_ms": pooled("staleness_ms", 75),
        "lookup_p50_us": pooled("lookup_us", 50),
        "lookup_p99_us": pooled("lookup_us", 99),
        "query_p50_ms": pooled("query_ms", 50),
        "setup_s": statistics.median(
            r["setup_s"] / factor(r) for r in untraced),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced iterations (raw wall
    clock), the median host factor, and the tracing overhead as the
    median ratio of each traced iteration to the untraced one before
    it, both at the reference host speed."""
    traced_runs = [r for r in runs if r["traced"]]
    out = {name: statistics.median(r["layer"][name] for r in traced_runs)
           for name in PER_LAYER if name in traced_runs[0]["layer"]}
    out["bench.trace_overhead"] = statistics.median(
        (b["e2e_wall_s"] / b["host_factor"])
        / (a["e2e_wall_s"] / a["host_factor"]) - 1.0
        for a, b in zip(runs, runs[1:]) if b["traced"] and not a["traced"])
    out["bench.host_factor"] = statistics.median(
        r["host_factor"] for r in runs)
    for layer in LAYERS:
        out[f"self.{layer}_pct"] = statistics.median(
            100.0 * r["self_s"][layer] / r["layer"]["wall_s"]
            for r in traced_runs)
    return out


def attribution(runs: list[dict]) -> list[str]:
    """Self time per layer against the wall time of the traced
    iteration with the median wall, so the rows add up and time no
    layer claims shows as its own row."""
    traced_runs = sorted((r for r in runs if r["traced"]),
                         key=lambda r: r["layer"]["wall_s"])
    r = traced_runs[(len(traced_runs) - 1) // 2]
    layer = r["layer"]
    wall = layer["wall_s"]
    lines = [f"attribution (median-wall of {len(traced_runs)} traced "
             f"iterations, wall {wall:.4f} s):"]
    for name in LAYERS:
        s = r["self_s"][name]
        label = "bench.hook" if name == "bench" else name
        lines.append(f"  {label:<14} {s:10.4f} s  {100 * s / wall:6.2f} %")
    for op, s in sorted(r["op_s"].items()):
        lines.append(f"  streaming.op_s.{op:<24} {s:10.4f} s")
    finalized = layer["checkpoint.finalized"]
    attempted = finalized + layer["checkpoint.aborted"]
    ratio = f"{finalized / attempted:.3f}" if attempted else "n/a"
    lines.append(f"  checkpoint.finalize_s {layer['checkpoint.finalize_s']:.4f}"
                 f" s, useful ratio {ratio} (finalized / attempted)")
    return lines


def write_spans(runs: list[dict], workload: str, seed: int) -> Path:
    out_dir = ROOT / ".e2ebench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as f:
        for run_id, r in enumerate(x for x in runs if x["traced"]):
            for span in r["spans"]:
                f.write(json.dumps({"run": run_id, **span}) + "\n")
    return path


def run_workload(wl: Workload, args: argparse.Namespace,
                 corrupt_row: bool) -> tuple[dict[str, float], int, int]:
    """Warm up, iterate for ``args.seconds``, print the report; returns
    ``(metrics, attempted, failed)``."""
    traced = bool(args.trace)
    ref = wl.reference(wl.inputs(args.seed, args.scale))
    runs = [iteration(wl, args.seed, 0, args.scale, False, ref, corrupt_row)]
    started = perf_counter()
    measured: list[dict] = []
    while (perf_counter() - started < args.seconds
           or len(measured) < MIN_ITERATIONS * (2 if traced else 1)):
        before = host_probe()
        r = iteration(wl, args.seed, len(runs) + len(measured), args.scale,
                      traced and len(measured) % 2 == 1, ref)
        r["host_factor"] = (before + host_probe()) / 2 / REFERENCE_PROBE_S
        measured.append(r)
    runs += measured
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if traced:
        metrics = per_layer(measured)
    else:
        metrics = end_to_end(measured)
        raw = end_to_end(measured, at_reference=False)
    units = PER_LAYER if traced else END_TO_END

    print(f"workload {wl.name} seed {args.seed}: {len(measured)} "
          f"iterations of {runs[0]['layer']['eventlog.produce_records']} "
          f"events, {sum(len(r['staleness_ms']) for r in measured)} commits, "
          f"{sum(len(r['lookup_us']) for r in measured)} lookups, "
          f"{sum(len(r['query_ms']) for r in measured)} queries")
    for name, value in metrics.items():
        print(f"{name:<30} {value:14.6g} {units[name]}"
              + ("" if traced else f"  (raw wall clock {raw[name]:.6g})"))
    print(f"{'error_rate':<30} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    for r in runs:
        for failure in r["failures"]:
            print(f"  FAILED: {failure}")
    if traced:
        print("\n".join(attribution(measured)))
        print(f"spans: {write_spans(measured, wl.name, args.seed)}")
    return metrics, attempted, failed


def main(argv: list[str] | None = None, corrupt_row: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (1.0 = the benchmark)")
    args = parser.parse_args(argv)
    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        got, a, f = run_workload(WORKLOADS[name], args, corrupt_row)
        attempted += a
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
