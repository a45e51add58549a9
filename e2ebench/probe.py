"""Measurement from outside the program: timed subclasses, ledger, spans.

Every number here comes from timing calls into a layer's public
surface — a :class:`CheckpointStore` subclass times ``finalize``, a
:class:`StoreSink` subclass times ``stage``/``apply`` and runs the
reader's lookups and queries after each apply, a wrapper times the
``log_source`` iterable — or from public counters.  Nothing is hooked
into the program.

Time the bench spends in its own commit hooks (the ledger, the
lookups, the queries and their checks) accumulates in ``hook_s`` and is
taken out of every wall-time metric.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Iterator

from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.store.hot import key_repr
from repro.store.sink import StoreSink
from repro.streaming.batch import RecordBatch
from repro.streaming.coordinator import CheckpointStore
from repro.util.metrics import MetricsRegistry

#: layer each span name belongs to (the root's own time is unattributed)
LAYER = {
    "workload": "unattributed",
    "produce": "eventlog",
    "source": "eventlog",
    "executor": "streaming",
    "finalize": "checkpoint",
    "stage": "store",
    "apply": "store",
    "hook": "bench",
    "ledger": "bench",
    "lookup_burst": "bench",
    "query": "bench",
}
LAYERS = ("eventlog", "streaming", "checkpoint", "store", "bench",
          "unattributed")
#: profiler summary timing the barrier snapshots inside the executor
#: call; traced runs move it from the executor span's self time to the
#: checkpoint layer.  (``checkpoint.duration_s`` stays put: the initial
#: synchronous checkpoint it times drains the sources, which the
#: ``source`` span already gives to the eventlog layer.)
SNAPSHOT_SUMMARY = "checkpoint.snapshot_s"


class Probe:
    """One iteration's measurements.  With ``traced`` it also records
    spans (kept in memory by a wall-clock :class:`Tracer`), times the
    bench's own UDFs and profiles the executor's operators."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.tracer = Tracer(timer=perf_counter, enabled=traced)
        self.registry = MetricsRegistry()
        self.secs: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: (apply return time, hook seconds accrued before it)
        self.visible: list[tuple[float, float]] = []
        self.lookup_us: list[float] = []
        self.query_ms: list[float] = []
        self.records_per_commit: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: CheckpointStore.latest()/verify() calls made from bench hooks
        self.observer_calls = 0
        self.in_hook = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Account the block's seconds to ``name``; traced runs also
        record it as a span under the innermost open one."""
        with self.tracer.span(name):
            t0 = perf_counter()
            try:
                yield
            finally:
                self.secs[name] = (self.secs.get(name, 0.0)
                                   + perf_counter() - t0)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def check(self, ok: bool, what: str) -> None:
        """One verified operation; a mismatch counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    @property
    def hook_s(self) -> float:
        return self.secs.get("hook", 0.0) + self.secs.get("ledger", 0.0)

    # -- traced-run helpers ---------------------------------------------------

    def udf(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a bench UDF so traced runs time it (untraced: as is)."""
        if not self.traced:
            return fn
        secs = self.secs

        def timed(*args: Any) -> Any:
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                secs["udf"] = secs.get("udf", 0.0) + (perf_counter() - t0)

        return timed

    def profiler(self) -> Profiler | None:
        """The executors' existing ``profiler=`` hook, traced runs only."""
        return Profiler(self.registry, perf_counter) if self.traced else None

    def profiled(self) -> dict[str, dict[str, float]]:
        """Profiler totals in seconds: ``{summary name: {op: s}}``."""
        out: dict[str, dict[str, float]] = {}
        snap = self.registry.snapshot()
        for key, n in snap.items():
            if not key.endswith(".count") or not n:
                continue
            key = key[:-len(".count")]
            name, _, labels = key.partition("{")
            op = labels.rstrip("}").partition("op=")[2] or "-"
            ops = out.setdefault(name, {})
            ops[op] = ops.get(op, 0.0) + n * snap[key + ".mean"]
        return out

    def timed_source(self, source: Callable[[], Any]) -> Callable[[], list]:
        """The ``log_source`` iterable, drained under the ``source``
        timer.  Both executors drain a source on its first pull, so
        draining here moves no work across layers."""

        def iterate() -> list:
            with self.span("source"):
                items = list(source())
            self.count("fetch_records", sum(
                len(i) if type(i) is RecordBatch else 1 for i in items))
            return items

        return iterate

    def self_times(self) -> tuple[dict[str, float], list[dict[str, Any]]]:
        """Per-layer self time (a span minus the part its children
        cover, parents straight from the tracer) and the span records.
        The profiled barrier snapshots inside the executor call move
        from the streaming layer to the checkpoint layer."""
        spans = self.tracer.finished()
        child_s: dict[str, float] = {}
        for s in spans:
            if s.parent_id is not None:
                child_s[s.parent_id] = (child_s.get(s.parent_id, 0.0)
                                        + s.duration)
        layers = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            layers[LAYER[s.name]] += s.duration - child_s.get(s.span_id, 0.0)
        moved = sum(self.profiled().get(SNAPSHOT_SUMMARY, {}).values())
        layers["streaming"] -= moved
        layers["checkpoint"] += moved
        records = [{"id": s.span_id, "parent": s.parent_id, "name": s.name,
                    "start": s.start_time, "end": s.end_time}
                   for s in spans]
        return layers, records


class TimedCheckpointStore(CheckpointStore):
    """Times ``finalize`` (which digests the whole checkpoint) and
    counts ``latest()``/``verify()`` calls issued from bench hooks —
    each re-pickles the checkpoint, so the bench must never make one
    while it measures."""

    def __init__(self, probe: Probe) -> None:
        super().__init__()
        self.probe = probe

    def finalize(self, checkpoint: Any, manifest: Any) -> None:
        with self.probe.span("finalize"):
            super().finalize(checkpoint, manifest)
        self.probe.count("finalized")

    def latest(self) -> Any:
        if self.probe.in_hook:
            self.probe.observer_calls += 1
        return super().latest()

    def verify(self, checkpoint_id: int) -> bool:
        if self.probe.in_hook:
            self.probe.observer_calls += 1
        return super().verify(checkpoint_id)


class Ledger:
    """Committed deltas as the bench saw them staged: per key the newest
    committed ``(timestamp, value)``, and every committed row."""

    def __init__(self) -> None:
        self.pending: dict[int, list] = {}
        self.newest: dict[str, tuple[float, Any]] = {}
        self.keys: list[Any] = []
        self.rows: list[tuple[Any, float, Any]] = []

    def staged(self, epoch: int, elements: list) -> None:
        self.pending[epoch] = elements

    def committed(self, epoch: int) -> None:
        newest = self.newest
        for e in self.pending.pop(epoch, ()):
            kr = key_repr(e.key)
            prev = newest.get(kr)
            if prev is None:
                self.keys.append(e.key)
            if prev is None or e.timestamp >= prev[0]:
                newest[kr] = (e.timestamp, e.value)
            self.rows.append((e.key, e.timestamp, e.value))


class ProbedStoreSink(StoreSink):
    """A :class:`StoreSink` whose ``stage``/``apply`` are timed, and
    whose every apply is followed by the workload's reader: a burst of
    ``wl.burst`` individually timed point lookups on committed keys,
    checked against the ledger, and every ``wl.query_every`` applies
    ``wl.queries`` timed analytical queries, checked against the ledger
    too."""

    def __init__(self, store: Any, probe: Probe, wl: Any, *,
                 sink_name: str, lookup_rng: Any,
                 checkpoints: Any = None) -> None:
        super().__init__(store, sink_name=sink_name)
        self.probe = probe
        self.ledger = Ledger()
        self.wl = wl
        self.lookup_rng = lookup_rng
        self.checkpoints = checkpoints
        self._cut = 0

    def stage(self, epoch: int, elements: list) -> dict[str, Any]:
        with self.probe.span("stage"):
            staged = super().stage(epoch, elements)
        with self.probe.span("ledger"):
            self.ledger.staged(epoch, elements)
        return staged

    def apply(self, epoch: int, staged: dict[str, Any]) -> int:
        probe = self.probe
        with probe.span("apply"):
            rows = super().apply(epoch, staged)
        probe.visible.append((perf_counter(), probe.hook_s))
        probe.count("rows_applied", rows)
        probe.in_hook = True
        try:
            with probe.span("hook"):
                self._reader(epoch)
        finally:
            probe.in_hook = False
        return rows

    def _reader(self, epoch: int) -> None:
        probe = self.probe
        ledger = self.ledger
        ledger.committed(epoch)
        if self.checkpoints is not None:
            # The commit cut comes from the manifest, never latest().
            manifest = self.checkpoints.manifests[epoch]
            cut = sum(sum(p.values())
                      for p in manifest.source_positions.values())
            probe.records_per_commit.append(cut - self._cut)
            self._cut = cut
        keys = ledger.keys
        if keys:
            picks = self.lookup_rng.integers(0, len(keys), self.wl.burst)
            point = self.store.point
            newest = ledger.newest
            lookup_us = probe.lookup_us
            with probe.span("lookup_burst"):
                for i in picks.tolist():
                    key = keys[i]
                    s = perf_counter_ns()
                    value = point(key)
                    lookup_us.append((perf_counter_ns() - s) / 1e3)
                    probe.check(value == newest[key_repr(key)][1],
                                f"lookup {key!r} at epoch {epoch}")
        if len(probe.visible) % self.wl.query_every == 0:
            want = self.wl.query_reference(ledger.rows)
            for _ in range(self.wl.queries):
                with probe.span("query"):
                    t0 = perf_counter()
                    got = self.wl.query(self.store)
                    probe.query_ms.append((perf_counter() - t0) * 1e3)
                    probe.check(close(got, want), f"query at epoch {epoch}")


def close(got: Any, want: Any, rel: float = 1e-9) -> bool:
    """Dict-of-floats equality within a relative tolerance fixed for
    float64 sums taken in a different order."""
    if set(got) != set(want):
        return False
    return all(math.isclose(got[k], want[k], rel_tol=rel, abs_tol=1e-12)
               for k in want)
