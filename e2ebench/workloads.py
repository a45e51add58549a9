"""The four workloads: inputs from the seed, the job, and references.

Every input is generated from ``--seed`` alone; every reference is
computed by the bench from those inputs, never read back from the
engine.  BENCHMARK.json records why each workload exists.

- ``ward_python``   vitals, dict UDFs, parse -> DLQ, 60 s window + CEP,
                    ``run_coordinated`` at p=2 into a TieredStore.
- ``ward_columnar`` the same vitals as fixed-point floats keyed at the
                    log, columnar source, vectorized filter/map/window.
- ``serve_upsert``  Zipf-skewed device positions on mobility traces,
                    map -> store at p=1,
                    a checkpoint every cycle, hot tier flushing.
- ``ward_adhoc``    the ``ward_python`` job under ``Executor(job).run()``
                    (the apps' ad-hoc path); the result is then
                    published into a TieredStore in one epoch.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

import numpy as np

from repro.datagen.health import generate_patients, vitals_stream
from repro.datagen.mobility import MobilityConfig, generate_trace
from repro.datagen.social import SocialStreamConfig
from repro.store import TieredStore
from repro.store.hot import key_repr
from repro.streaming import DEAD_LETTER, DLQ_SINK, JobBuilder
from repro.streaming.cep import PatternOperator, PatternStep
from repro.streaming.connectors import log_source
from repro.streaming.windows import TumblingWindows
from repro.util.rng import RngRegistry

TOPIC = "vitals"
STORE_SINK = "vitals_1m"
ALERTS_SINK = "alerts"

PATIENTS = 16
HORIZON_S = 1500.0
PERIOD_S = 5.0
CORRUPT_SHARE = 0.001
WINDOW_S = 60.0
LATENESS_S = 10.0
DASHBOARD_S = 300.0
#: CEP thresholds: tachycardia then low systolic pressure within 5 min.
#: Set near the generator's spread so the pattern fires at a measurable
#: rate, not at clinical alarm levels.
HR_ABOVE = 80.0
BP_BELOW = 112.0
WITHIN_S = 300.0

#: position updates per iteration: the per-commit checkpoint digest
#: grows with the run (baseline.json findings), and this size keeps an
#: iteration near 2 s on the reference host
POSITIONS = 6000
#: device population: at the POI skew 6000 updates touch ~950 distinct
#: keys, 15x the ward workloads' 64
DEVICES = 4000
CELL_M = 100.0


# -- inputs ------------------------------------------------------------------


def vitals(seed: int, scale: float) -> dict[str, Any]:
    """Ward vitals: ``(patient, vital, ts, value)`` in send order, and
    the indices of the readings a flaky sensor corrupts."""
    reg = RngRegistry(seed)
    patients = generate_patients(reg.get("patients"),
                                 n=max(2, round(PATIENTS * scale)),
                                 horizon_s=HORIZON_S)
    rows = []
    for p in patients:
        for s in vitals_stream(p, reg.get(f"vitals-{p.patient_id}"),
                               horizon_s=HORIZON_S, period_s=PERIOD_S):
            rows.append((s.patient_id, s.vital, s.timestamp, s.value))
    rows.sort(key=lambda r: (r[2], r[0], r[1]))
    n = len(rows)
    corrupt = reg.get("corrupt").choice(
        n, size=max(1, round(n * CORRUPT_SHARE)), replace=False)
    return {"rows": rows, "corrupt": set(corrupt.tolist())}


def positions(seed: int, scale: float) -> dict[str, Any]:
    """Device positions: which device reports next follows the repo's
    POI popularity skew (Zipf, ``SocialStreamConfig.zipf_s``) over
    ``DEVICES`` devices, and each device's successive reports walk its
    own truncated-Levy mobility trace (``datagen.mobility``, the
    paper's ref [9]).  The population reports one position per device
    per trace step on average, which spaces the events in time."""
    reg = RngRegistry(seed)
    n = max(200, round(POSITIONS * scale))
    ranks = np.arange(1, DEVICES + 1, dtype=float)
    weights = ranks ** -SocialStreamConfig.zipf_s
    device = reg.get("devices").choice(DEVICES, size=n,
                                       p=weights / weights.sum())
    rng = reg.get("traces")
    traces = {d: generate_trace(f"dev-{d:05d}", rng,
                                MobilityConfig(steps=int(c)))
              for d, c in enumerate(np.bincount(device)) if c}
    step = dict.fromkeys(traces, 0)
    spacing = MobilityConfig.dt_s / DEVICES
    rows = []
    for i, d in enumerate(device.tolist()):
        trace, k = traces[d], step[d]
        step[d] = k + 1
        rows.append((trace.user, float(trace.xs[k]), float(trace.ys[k]),
                     i * spacing))
    return {"rows": rows}


# -- UDFs (plain functions, so a traced run can time them) -------------------


def parse(v: dict) -> dict:
    return {"patient": v["patient"], "vital": v["vital"],
            "value": float(v["reading"])}


def patient_vital(v: dict) -> str:
    return v["patient"] + ":" + v["vital"]


def patient(v: dict) -> str:
    return v["patient"]


def reading(v: dict) -> float:
    return v["value"]


def tachycardia(v: dict) -> bool:
    return v["vital"] == "heart_rate" and v["value"] > HR_ABOVE


def hypotension(v: dict) -> bool:
    return v["vital"] == "systolic_bp" and v["value"] < BP_BELOW


def present(v: np.ndarray) -> np.ndarray:
    return ~np.isnan(v)


def from_fixed_point(v: np.ndarray) -> np.ndarray:
    return v * 0.01


def overlay(v: dict) -> dict:
    return {"device": v["device"], "x": v["x"], "y": v["y"],
            "cell": (int(v["x"] // CELL_M), int(v["y"] // CELL_M))}


def result_value(r: Any) -> float:
    return r.value


def position_x(v: dict) -> float:
    return v["x"]


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    coordinated = True
    parallelism = 1
    interval_cycles = 2
    #: point lookups after every store-visible commit
    burst = 32
    #: analytical queries (``queries`` back to back) every this many
    #: commits
    query_every = 4
    queries = 1
    memtable_limit = 4096

    def inputs(self, seed: int, scale: float) -> dict[str, Any]:
        raise NotImplementedError

    def records(self, inputs: dict) -> list[tuple[Any, str, float]]:
        """``(value, log key, timestamp)`` in send order."""
        raise NotImplementedError

    def build(self, cluster: Any, probe: Any) -> Any:
        raise NotImplementedError

    def new_store(self) -> TieredStore:
        return TieredStore(metric_fn=result_value,
                           memtable_limit=self.memtable_limit)

    def query(self, store: TieredStore) -> dict:
        """The ward dashboard: 5-minute means of the 1-minute means."""
        return store.tumbling(DASHBOARD_S, "mean")

    @staticmethod
    def query_reference(rows: list) -> dict:
        acc: dict[tuple, list] = {}
        for key, ts, r in rows:
            slot = acc.setdefault((key, (ts // DASHBOARD_S) * DASHBOARD_S),
                                  [0.0, 0])
            slot[0] += r.value
            slot[1] += 1
        return {k: s / n for k, (s, n) in acc.items()}

    def reference(self, inputs: dict) -> dict[str, Any]:
        raise NotImplementedError

    def verify(self, ref: dict, store: TieredStore,
               sinks: dict[str, list], probe: Any) -> None:
        """Final store contents, dead letters and alerts against the
        bench's own reference."""
        got = {}
        duplicates = 0
        for kr, versions in store.contents().items():
            for _ts, r in versions:
                duplicates += (kr, r.window.start) in got
                got[(kr, r.window.start)] = (r.value, r.count)
        probe.check(duplicates == 0, f"{duplicates} duplicate store rows")
        want = ref["windows"]
        for k, (mean, count) in want.items():
            row = got.get(k)
            probe.check(row is not None and row[1] == count
                        and math.isclose(row[0], mean, rel_tol=1e-9),
                        f"store row {k}: {row} != {(mean, count)}")
        probe.check(set(got) == set(want),
                    f"{len(set(got) - set(want))} unexpected store rows")
        probe.check(store.stats()["analytical"]["rows"] == len(want),
                    "analytical row count")
        dlq = len(sinks.get(DLQ_SINK, ()))
        probe.check(dlq == ref["dead_letters"],
                    f"dead letters {dlq} != {ref['dead_letters']}")
        alerts = sorted((m.key, m.timestamps)
                        for m in sinks.get(ALERTS_SINK, ()))
        probe.check(alerts == ref["alerts"],
                    f"alerts {len(alerts)} != {len(ref['alerts'])}")


def _windows(cells: list[tuple[str, float, float]]) -> dict:
    """``(key, ts, value)`` -> ``{(key_repr, window start): (mean, n)}``."""
    acc: dict[tuple, list] = {}
    for key, ts, value in cells:
        slot = acc.setdefault((key_repr(key), (ts // WINDOW_S) * WINDOW_S),
                              [0.0, 0])
        slot[0] += value
        slot[1] += 1
    return {k: (s / n, n) for k, (s, n) in acc.items()}


class WardPython(Workload):
    name = "ward_python"
    parallelism = 2

    def inputs(self, seed: int, scale: float) -> dict[str, Any]:
        return vitals(seed, scale)

    def records(self, inputs: dict) -> list:
        corrupt = inputs["corrupt"]
        return [({"patient": p, "vital": v,
                  "reading": "--" if i in corrupt else f"{x:.2f}"}, p, ts)
                for i, (p, v, ts, x) in enumerate(inputs["rows"])]

    def build(self, cluster: Any, probe: Any) -> Any:
        u = probe.udf
        builder = JobBuilder(self.name)
        parsed = (builder.source("vitals", probe.timed_source(
                      log_source(cluster, TOPIC)))
                  .map(u(parse), name="parse").on_error(DEAD_LETTER)
                  .with_watermarks(LATENESS_S, name="watermarks"))
        (parsed.key_by(u(patient_vital), name="by_patient_vital")
               .window(TumblingWindows(WINDOW_S), "mean",
                       value_fn=u(reading), name="mean_1m")
               .sink(STORE_SINK))
        (parsed.key_by(u(patient), name="by_patient")
               .apply(PatternOperator("deterioration", [
                   PatternStep("tachycardia", u(tachycardia)),
                   PatternStep("hypotension", u(hypotension))],
                   within_s=WITHIN_S))
               .sink(ALERTS_SINK))
        return builder.build()

    def reference(self, inputs: dict) -> dict[str, Any]:
        corrupt = inputs["corrupt"]
        clean = [(p, v, ts, float(f"{x:.2f}"))
                 for i, (p, v, ts, x) in enumerate(inputs["rows"])
                 if i not in corrupt]
        # Skip-till-next-match per patient, in log order (one partition
        # per patient, so per-patient order is send order).
        partial: dict[str, list[float]] = {}
        alerts = []
        for p, v, ts, x in clean:
            head = partial.setdefault(p, [])
            if head and ts - head[0] > WITHIN_S:
                head.clear()
            step = tachycardia if not head else hypotension
            if step({"vital": v, "value": x}):
                head.append(ts)
                if len(head) == 2:
                    alerts.append((p, tuple(head)))
                    head.clear()
        return {"windows": _windows([(f"{p}:{v}", ts, x)
                                     for p, v, ts, x in clean]),
                "dead_letters": len(corrupt),
                "alerts": sorted(alerts)}


class WardAdhoc(WardPython):
    name = "ward_adhoc"
    coordinated = False
    #: one publish per run: the reader's whole budget follows it
    burst = 1536
    query_every = 1
    queries = 16


class WardColumnar(Workload):
    name = "ward_columnar"
    parallelism = 2

    def inputs(self, seed: int, scale: float) -> dict[str, Any]:
        return vitals(seed, scale)

    def records(self, inputs: dict) -> list:
        corrupt = inputs["corrupt"]
        return [(math.nan if i in corrupt else float(round(x * 100)),
                 f"{p}:{v}", ts)
                for i, (p, v, ts, x) in enumerate(inputs["rows"])]

    def build(self, cluster: Any, probe: Any) -> Any:
        u = probe.udf
        builder = JobBuilder(self.name)
        (builder.source("vitals", probe.timed_source(
                    log_source(cluster, TOPIC, columnar=True)))
                .filter(u(present), name="present", vectorized=True)
                .map(u(from_fixed_point), name="fixed_point",
                     vectorized=True)
                .with_watermarks(LATENESS_S, name="watermarks")
                .window(TumblingWindows(WINDOW_S), "mean", name="mean_1m")
                .sink(STORE_SINK))
        return builder.build()

    def reference(self, inputs: dict) -> dict[str, Any]:
        corrupt = inputs["corrupt"]
        return {"windows": _windows([
                    (f"{p}:{v}", ts, float(round(x * 100)) * 0.01)
                    for i, (p, v, ts, x) in enumerate(inputs["rows"])
                    if i not in corrupt]),
                "dead_letters": 0, "alerts": []}


class ServeUpsert(Workload):
    name = "serve_upsert"
    parallelism = 1
    interval_cycles = 1
    query_every = 8
    #: small memtables so the hot tier flushes and compacts mid-run
    memtable_limit = 64

    def inputs(self, seed: int, scale: float) -> dict[str, Any]:
        return positions(seed, scale)

    def records(self, inputs: dict) -> list:
        return [({"device": d, "x": x, "y": y}, d, ts)
                for d, x, y, ts in inputs["rows"]]

    def build(self, cluster: Any, probe: Any) -> Any:
        builder = JobBuilder(self.name)
        (builder.source("positions", probe.timed_source(
                    log_source(cluster, TOPIC)))
                .map(probe.udf(overlay), name="overlay")
                .sink(STORE_SINK))
        return builder.build()

    def new_store(self) -> TieredStore:
        return TieredStore(metric_fn=position_x,
                           memtable_limit=self.memtable_limit)

    def query(self, store: TieredStore) -> dict:
        """Updates per device so far (the footfall-style dashboard)."""
        return store.group_by("count")

    @staticmethod
    def query_reference(rows: list) -> dict:
        return {k: float(n) for k, n in Counter(k for k, _, _ in rows).items()}

    def reference(self, inputs: dict) -> dict[str, Any]:
        versions: dict[str, list] = {}
        for d, x, y, ts in inputs["rows"]:
            versions.setdefault(key_repr(d), []).append(
                (ts, overlay({"device": d, "x": x, "y": y})))
        return {"versions": {k: v[::-1] for k, v in versions.items()}}

    def verify(self, ref: dict, store: TieredStore,
               sinks: dict[str, list], probe: Any) -> None:
        got = store.contents()
        want = ref["versions"]
        for k, versions in want.items():
            probe.check(got.get(k) == versions, f"store versions of {k}")
        probe.check(set(got) == set(want),
                    f"{len(set(got) - set(want))} unexpected store keys")
        rows = sum(len(v) for v in want.values())
        probe.check(store.stats()["analytical"]["rows"] == rows,
                    "analytical row count")
        probe.check(not sinks.get(DLQ_SINK), "unexpected dead letters")


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    WardPython(), WardColumnar(), ServeUpsert(), WardAdhoc())}
