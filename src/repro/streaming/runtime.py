"""Job execution: batched channels, operator chaining, checkpoints.

The executor runs a :class:`~repro.streaming.graph.JobGraph` by pulling
batches from the sources and pushing items through bounded channels in
topological order.  Single-threaded and deterministic — "parallelism" is
a modelled quantity (channel occupancy / backpressure counters), not OS
threads, which keeps every experiment reproducible.

Two execution modes share one semantics:

- **batched** (default): whole channel batches move through
  :meth:`Operator.process_batch` and are routed downstream in one call;
  linear runs of chainable operators are fused into a single
  :class:`~repro.streaming.chain.ChainedOperator` node at build time
  (``chaining=True``), eliminating per-hop channel traffic.  Sources
  encode element runs as :class:`RecordBatch` columns wherever the
  buffer allows; markers and items without an encoding ride between
  them as loose items in the same channels.
- **per-item** (``batch_mode=False``): the original element-at-a-time
  dispatch, kept as the measured baseline and as the semantic reference
  — batched execution is bit-identical to it (same sink contents, same
  operator state/checkpoints, same ``processed``/``emitted`` counters).

Counter semantics across modes: ``backpressure_events`` and
``dropped_overflow`` are accounted per *item* in both modes (the batch
path computes the identical arithmetic in O(1)), but *chaining* removes
the channels between fused operators, so a chained run observes
backpressure only at chain boundaries.

Checkpointing takes an aligned snapshot between drain cycles (at that
point no items are in flight, so the snapshot is globally consistent by
construction) — the moral equivalent of Chandy–Lamport barriers in a
single-threaded world.  Snapshots always capture the *logical* operators
of the job graph (chain members individually), so checkpoints taken
under any mode restore under any other.  ``restore`` rewinds sources to
their checkpointed positions, so replay-after-failure delivers
exactly-once results for deterministic operators.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..util.errors import BackpressureOverflow, CheckpointError
from .batch import (ColumnarStream, RecordBatch, decode_items, elements_of,
                    items_weight, take_prefix)
from .chain import ChainedOperator
from .element import Element, StreamItem
from .errors import DLQ_SINK, FAIL, ErrorPolicy, batch_process, item_process
from .graph import JobGraph
from .join import IntervalJoinOperator
from .operators import Operator

__all__ = ["Executor", "Checkpoint", "SinkBuffer", "build_chains",
           "offer_batch"]


@dataclass
class Checkpoint:
    """A consistent snapshot of a running job."""

    checkpoint_id: int
    source_positions: dict[str, int]
    operator_state: dict[str, Any]
    emitted_to_sinks: dict[str, int]
    #: chaos data-fault counters at the cut (see FaultInjector
    #: .data_counts): fault windows name records, so replay after a
    #: restore must rewind them to re-poison the same records
    data_counts: dict[str, int] = field(default_factory=dict)


@dataclass
class SinkBuffer:
    """Collects elements delivered to a named sink."""

    name: str
    elements: list[Element] = field(default_factory=list)

    @property
    def values(self) -> list[Any]:
        return [e.value for e in self.elements]

    def __len__(self) -> int:
        return len(self.elements)


def offer_batch(executor: Any, channel: deque, node: str,
                items: list[StreamItem]) -> None:
    """Append ``items`` to one of ``executor``'s bounded channels with
    per-item backpressure/drop accounting, computed arithmetically in
    O(1) — the one batch offer both executors use.

    Items count element-weighted (a RecordBatch is as many items as it
    has rows), so backpressure and drop decisions are
    representation-blind.  The partial-extend paths (drop, raise) split
    batches at the exact element boundary; the raise path also decodes,
    so stalled channel *contents* match per-item execution.  Counters
    land on ``executor.backpressure_events`` / ``dropped_overflow`` and,
    with metrics on, the ``channel.*`` counters of ``node``.
    """
    occupancy = items_weight(channel)
    n = items_weight(items)
    capacity = executor.channel_capacity
    if occupancy + n <= capacity:
        channel.extend(items)
        return
    metrics = executor.metrics
    if executor.drop_on_overflow:
        room = max(0, capacity - occupancy)
        if room:
            channel.extend(take_prefix(items, room))
        executor.dropped_overflow += n - room
        if metrics is not None:
            metrics.counter("channel.dropped", node=node).inc(n - room)
        return
    if occupancy + n > capacity * 10:
        # Mirror per-item semantics exactly: ``Executor._offer`` appends
        # until the channel reaches 10x capacity and raises on the item
        # that finds it full, so ``i0`` items land and ``i0 + 1`` appends
        # observed a channel at or over capacity.
        i0 = capacity * 10 - occupancy
        channel.extend(decode_items(take_prefix(items, i0)))
        events = (i0 + 1) - max(0, min(i0 + 1, capacity - occupancy))
        executor.backpressure_events += events
        if metrics is not None:
            metrics.counter("channel.backpressure", node=node).inc(events)
        raise BackpressureOverflow(
            f"channel into {node!r} exceeded 10x capacity; "
            "the job cannot keep up and dropping is disabled"
        )
    # Every append observed at >= capacity is one backpressure event.
    events = n - max(0, min(n, capacity - occupancy))
    executor.backpressure_events += events
    if metrics is not None and events:
        metrics.counter("channel.backpressure", node=node).inc(events)
    channel.extend(items)


def build_chains(job: JobGraph,
                 compatible: Any = None) -> dict[str, list[str]]:
    """Find maximal fusible runs: consecutive chainable operators linked
    by a untagged edge where the upstream has exactly one downstream and
    the downstream exactly one upstream.  Returns head -> member names.

    ``compatible(up, down) -> bool``, when given, adds an extra fusion
    gate — the parallel compiler (:mod:`repro.streaming.execution`) uses
    it to keep a chain from spanning a parallelism change, so both
    executors share one fusion rule set.
    """
    out_degree: dict[str, int] = {}
    in_degree: dict[str, int] = {}
    for up, down, _side in job.edges:
        out_degree[up] = out_degree.get(up, 0) + 1
        in_degree[down] = in_degree.get(down, 0) + 1
    links: dict[str, str] = {}
    for up, down, side in job.edges:
        if side is not None:
            continue
        if up not in job.operators or down not in job.operators:
            continue
        if not (job.operators[up].chainable and job.operators[down].chainable):
            continue
        if out_degree[up] != 1 or in_degree[down] != 1:
            continue
        if compatible is not None and not compatible(up, down):
            continue
        links[up] = down
    linked_to = set(links.values())
    chains: dict[str, list[str]] = {}
    for head in links:
        if head in linked_to:
            continue
        run = [head]
        while run[-1] in links:
            run.append(links[run[-1]])
        chains[head] = run
    return chains


class Executor:
    """Runs a job graph to completion (or incrementally)."""

    def __init__(self, job: JobGraph, channel_capacity: int = 10_000,
                 drop_on_overflow: bool = False, batch_mode: bool = True,
                 chaining: bool = True, injector: Any = None,
                 tracer: Any = None, metrics: Any = None,
                 profiler: Any = None) -> None:
        job.validate()
        self.job = job
        self.channel_capacity = channel_capacity
        self.drop_on_overflow = drop_on_overflow
        self.batch_mode = batch_mode
        self.chaining = chaining and batch_mode
        #: optional fault injector (see :mod:`repro.chaos`) — duck-typed
        #: so the streaming layer never imports chaos: anything with
        #: ``intercept_batch(op, items, process)`` and ``before_item(op)``
        #: works.  ``None`` keeps the hot paths hook-free.
        self.injector = injector
        #: optional observability hooks (see :mod:`repro.obs`) — all
        #: duck-typed for the same layering reason as ``injector``:
        #: ``tracer`` needs ``start_span``/``activate``, ``metrics`` a
        #: :class:`~repro.util.metrics.MetricsRegistry` surface, and
        #: ``profiler`` ``timer()``/``record()``.  ``None`` (the
        #: default) keeps every hot path branch-predictable and free.
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self.sinks: dict[str, SinkBuffer] = {
            s: SinkBuffer(s) for s in job.sinks
        }
        if job.needs_dead_letters:
            # The reserved DLQ sink rides the normal sink machinery, so
            # checkpoints snapshot/truncate it like any other sink and
            # recovery keeps it exactly-once.
            self.sinks[DLQ_SINK] = SinkBuffer(DLQ_SINK)
        self._job_span: Any = None
        self._obs_spans: dict[str, Any] = {}
        self._max_event_ts = float("-inf")
        # Registry lookups render labelled keys; hot paths go through
        # this handle cache instead of re-rendering per item.
        self._metric_handles: dict[tuple[str, str], Any] = {}
        self._build_plan()
        self._source_iters: dict[str, Any] = {}
        self._source_positions: dict[str, int] = {}
        self._source_buffers: dict[str, list[Element]] = {}
        self._source_streams: dict[str, ColumnarStream] = {}
        self.backpressure_events = 0
        self.dropped_overflow = 0
        self._checkpoint_seq = 0
        self._finished_sources: set[str] = set()
        self._flushed = False

    # -- execution plan ------------------------------------------------------

    def _build_plan(self) -> None:
        """Fuse chains (when enabled) and precompute routing tables.

        The plan maps the logical job graph onto execution nodes: every
        fused run becomes one :class:`ChainedOperator`; edges internal to
        a run disappear (no channel), the rest are renamed onto the
        chain node.  Downstream lists are precomputed once — the seed
        recomputed them per routed item.
        """
        rename: dict[str, str] = {}
        self._exec_ops: dict[str, Operator] = {}
        chains = build_chains(self.job) if self.chaining else {}
        in_chain: dict[str, str] = {}
        for head, members in chains.items():
            chained = ChainedOperator([self.job.operators[m]
                                       for m in members])
            # Per-member wall time is measured inside the chain (the
            # executor only sees the fused node).
            chained.profiler = self.profiler
            self._exec_ops[chained.name] = chained
            for m in members:
                in_chain[m] = chained.name
                rename[m] = chained.name
        for name, op in self.job.operators.items():
            if name not in in_chain:
                self._exec_ops[name] = op
                rename[name] = name
        self._exec_edges: list[tuple[str, str, str | None]] = []
        for up, down, side in self.job.edges:
            new_up = rename.get(up, up)
            new_down = rename.get(down, down)
            if new_up == new_down:  # edge internal to a chain
                continue
            self._exec_edges.append((new_up, new_down, side))
        # Topological order of exec nodes, derived from the job's order.
        seen: set[str] = set()
        self._topo: list[str] = []
        for name in self.job.topological_operators():
            exec_name = rename[name]
            if exec_name not in seen:
                seen.add(exec_name)
                self._topo.append(exec_name)
        # (node, side) -> queue of pending items
        self._channels: dict[tuple[str, str | None], deque[StreamItem]] = {}
        for _up, down, side in self._exec_edges:
            if down in self._exec_ops:
                self._channels.setdefault((down, side), deque())
        self._down: dict[str, list[tuple[str, str | None]]] = {}
        for up, down, side in self._exec_edges:
            self._down.setdefault(up, []).append((down, side))
        self._wire_error_policies()

    def _wire_error_policies(self) -> None:
        """Precompute error-policy enforcement per execution node.

        ``self._guard`` maps guarded *unfused* nodes to their policy;
        fused chains enforce per member internally (policies /
        dead-letter list / fault source installed here).  Jobs without
        declared policies and without data-fault chaos get an empty
        map — the drain loops then take exactly the pre-policy path.
        """
        policies = self.job.error_policies
        self._data_chaos = (self.injector is not None
                            and getattr(self.injector,
                                        "has_data_faults", False))
        self._fault_source = (self.injector.data_directives
                              if self._data_chaos else None)
        self._dead_letters: list[Element] = []
        self._guard: dict[str, ErrorPolicy] = {}
        for name, op in self._exec_ops.items():
            if isinstance(op, ChainedOperator):
                member_policies = {m: policies[m]
                                   for m in op.member_names
                                   if m in policies}
                if member_policies or self._data_chaos:
                    op.policies = member_policies
                    op.dead_letters = self._dead_letters
                    if self._data_chaos:
                        op.fault_source = self.injector.data_directives
            else:
                policy = policies.get(name)
                if policy is not None and policy.kind != "fail":
                    self._guard[name] = policy
                elif self._data_chaos:
                    self._guard[name] = policy or FAIL

    def _deliver_dead_letters(self) -> None:
        """Move collected dead letters into the reserved DLQ sink."""
        self.sinks[DLQ_SINK].elements.extend(self._dead_letters)
        self._dead_letters.clear()

    def chained_nodes(self) -> dict[str, list[str]]:
        """Execution-node name -> member operator names for fused chains."""
        return {name: [op.name for op in node.operators]
                for name, node in self._exec_ops.items()
                if isinstance(node, ChainedOperator)}

    # -- source handling -----------------------------------------------------

    def _materialize_source(self, name: str) -> list[Element]:
        """Sources are materialized on first touch so checkpoint/restore can
        rewind by index.  Real systems rewind via log offsets; our
        eventlog-backed sources do exactly that through ``log_source``."""
        if name not in self._source_buffers:
            raw = list(self.job.sources[name].iterate())
            # Connectors may yield pre-encoded RecordBatches; the flat
            # element buffer stays canonical (checkpoint positions index
            # it), the columnar stream splices them in zero-copy.
            if RecordBatch in map(type, raw):
                self._source_buffers[name] = decode_items(raw)
            else:
                self._source_buffers[name] = raw
            self._source_positions.setdefault(name, 0)
            if self.batch_mode:
                self._source_streams[name] = ColumnarStream(raw)
        return self._source_buffers[name]

    def _pull_sources(self, batch: int) -> list[tuple[str, list[StreamItem]]]:
        pulled: list[tuple[str, list[StreamItem]]] = []
        for name in sorted(self.job.sources):
            if name in self._finished_sources:
                continue
            buffer = self._materialize_source(name)
            pos = self._source_positions[name]
            if self.batch_mode:
                take = self._source_streams[name].slice(pos, pos + batch)
                taken = min(batch, len(buffer) - pos)
            else:
                take = buffer[pos:pos + batch]
                taken = len(take)
            self._source_positions[name] = pos + taken
            if take:
                pulled.append((name, take))
            if self._source_positions[name] >= len(buffer):
                self._finished_sources.add(name)
        return pulled

    # -- channel plumbing ---------------------------------------------------------

    def _offer(self, node: str, side: str | None, item: StreamItem) -> None:
        channel = self._channels[(node, side)]
        if len(channel) >= self.channel_capacity:
            if self.drop_on_overflow:
                self.dropped_overflow += 1
                if self.metrics is not None:
                    self.metrics.counter("channel.dropped", node=node).inc()
                return
            # Backpressure: in the single-threaded model the producer
            # stalls, which we account for and then proceed (the channel
            # grows — the counter is the signal the benchmarks read).
            self.backpressure_events += 1
            if self.metrics is not None:
                self.metrics.counter("channel.backpressure", node=node).inc()
            if len(channel) >= self.channel_capacity * 10:
                raise BackpressureOverflow(
                    f"channel into {node!r} exceeded 10x capacity; "
                    "the job cannot keep up and dropping is disabled"
                )
        channel.append(item)

    def _route(self, node: str, items: Iterable[StreamItem]) -> None:
        """Per-item delivery from ``node`` to its downstream edges."""
        downstream = self._down.get(node, ())
        for item in items:
            for down, side in downstream:
                sink = self.sinks.get(down)
                if sink is not None:
                    if isinstance(item, Element):
                        sink.elements.append(item)
                        if self.metrics is not None:
                            self._observe_sink(down, item)
                else:
                    self._offer(down, side, item)

    def _route_batch(self, node: str, items: list[StreamItem]) -> None:
        """Deliver a whole output batch downstream in one call per edge."""
        if not items:
            return
        for down, side in self._down.get(node, ()):
            sink = self.sinks.get(down)
            if sink is not None:
                delivered = elements_of(items)
                sink.elements.extend(delivered)
                if self.metrics is not None:
                    self._observe_sink_batch(down, delivered)
            else:
                offer_batch(self, self._channels[(down, side)], down, items)

    def _observe_sink(self, sink: str, element: Element) -> None:
        """Watermark-lag proxy per delivery: distance between this
        element's event time and the newest event time any sink has seen.
        Zero for in-order delivery; grows with out-of-orderness and
        windowing delay."""
        ts = element.timestamp
        if ts > self._max_event_ts:
            self._max_event_ts = ts
        handles = self._metric_handles.get(("sink", sink))
        if handles is None:
            handles = (self.metrics.counter("sink.delivered", sink=sink),
                       self.metrics.summary("sink.watermark_lag_s",
                                            sink=sink))
            self._metric_handles[("sink", sink)] = handles
        delivered, lag = handles
        delivered.inc()
        lag.observe(self._max_event_ts - ts)

    def _observe_sink_batch(self, sink: str, delivered: list[Element]) -> None:
        """Vectorized :meth:`_observe_sink` over a delivery batch: the
        running max of event time is ``np.maximum.accumulate`` seeded
        with the high-water mark — identical lag samples, one observe."""
        if not delivered:
            return
        handles = self._metric_handles.get(("sink", sink))
        if handles is None:
            handles = (self.metrics.counter("sink.delivered", sink=sink),
                       self.metrics.summary("sink.watermark_lag_s",
                                            sink=sink))
            self._metric_handles[("sink", sink)] = handles
        counter, lag = handles
        n = len(delivered)
        ts = np.fromiter((e.timestamp for e in delivered),
                         dtype=np.float64, count=n)
        high = np.maximum.accumulate(ts)
        if self._max_event_ts != float("-inf"):
            high = np.maximum(high, self._max_event_ts)
        self._max_event_ts = float(high[-1])
        counter.inc(n)
        lag.observe_many((high - ts).tolist())

    def _batch_size_summary(self, node: str) -> Any:
        summary = self._metric_handles.get(("batch", node))
        if summary is None:
            summary = self.metrics.summary("op.batch_size", op=node)
            self._metric_handles[("batch", node)] = summary
        return summary

    # -- drain cycles --------------------------------------------------------

    def _take_channel(self, name: str,
                      side: str | None) -> deque[StreamItem] | None:
        """Swap the channel for a fresh deque instead of copy-and-clear
        (the seed paid an O(n) list copy per channel per cycle)."""
        channel = self._channels.get((name, side))
        if not channel:
            return None
        self._channels[(name, side)] = deque()
        return channel

    def _drain_cycle(self) -> int:
        """One pass through all execution nodes in topological order."""
        if self.batch_mode:
            return self._drain_cycle_batched()
        return self._drain_cycle_per_item()

    def _drain_cycle_batched(self) -> int:
        moved = 0
        injector = self.injector
        metrics = self.metrics
        profiler = self.profiler
        for name in self._topo:
            op = self._exec_ops[name]
            chained = isinstance(op, ChainedOperator)
            started = (profiler.timer()
                       if profiler is not None and not chained else 0.0)
            drained = 0
            guard = self._guard.get(name)
            for side in (("left", "right")
                         if isinstance(op, IntervalJoinOperator)
                         else (None,)):
                pending = self._take_channel(name, side)
                if pending is None:
                    continue
                if side is not None:
                    # Joins have no columnar kernel; decode at the
                    # channel so side-batch processing (and chaos
                    # interception) see plain elements.
                    pending = decode_items(pending)
                weight = items_weight(pending)
                moved += weight
                drained += weight
                process = batch_process(op, side, guard, self._dead_letters,
                                        self._fault_source)
                if injector is None:
                    out = process(pending)
                else:
                    out = injector.intercept_batch(op, pending, process)
                self._route_batch(name, out)
            if self._dead_letters:
                self._deliver_dead_letters()
            if drained:
                if metrics is not None:
                    self._batch_size_summary(name).observe(drained)
                # Chain members time themselves (see ChainedOperator).
                if profiler is not None and not chained:
                    profiler.record("op.wall_s", started, op=name)
        return moved

    def _drain_cycle_per_item(self) -> int:
        moved = 0
        injector = self.injector
        metrics = self.metrics
        profiler = self.profiler
        for name in self._topo:
            op = self._exec_ops[name]
            guard = self._guard.get(name)
            for side in ([None] if not isinstance(op, IntervalJoinOperator)
                         else ["left", "right"]):
                pending = self._take_channel(name, side)
                if pending is None:
                    continue
                started = profiler.timer() if profiler is not None else 0.0
                process = item_process(op, side, guard, self._dead_letters,
                                       self._fault_source)
                for item in pending:
                    moved += 1
                    if injector is not None:
                        injector.before_item(op)  # may raise a crash
                    self._route(name, process(item))
                if self._dead_letters:
                    self._deliver_dead_letters()
                if metrics is not None:
                    self._batch_size_summary(name).observe(len(pending))
                if profiler is not None:
                    profiler.record("op.wall_s", started, op=name)
        return moved

    # -- observability -------------------------------------------------------

    def _mode_name(self) -> str:
        if not self.batch_mode:
            return "per_item"
        return "chained" if self.chaining else "batched"

    def _ensure_spans(self) -> None:
        """Create (once) the job span plus one child span per *logical*
        source/operator/sink.  Spans follow the logical graph rather than
        the execution plan, so the span tree — names, parentage, count —
        is identical across per-item, batched and chained modes."""
        if self.tracer is None or self._job_span is not None:
            return
        self._job_span = self.tracer.start_span(
            f"job:{self.job.name}", attrs={"mode": self._mode_name()})
        for name in sorted(self.job.sources):
            self._obs_spans[f"source:{name}"] = self.tracer.start_span(
                f"source:{name}", parent=self._job_span)
        for name in self.job.topological_operators():
            self._obs_spans[f"op:{name}"] = self.tracer.start_span(
                f"op:{name}", parent=self._job_span)
        for name in sorted(self.job.sinks):
            self._obs_spans[f"sink:{name}"] = self.tracer.start_span(
                f"sink:{name}", parent=self._job_span)

    def _close_spans(self) -> None:
        if self._job_span is None:
            return
        for name in self.job.sources:
            span = self._obs_spans[f"source:{name}"]
            span.set_attr("records",
                          len(self._source_buffers.get(name, ())))
            span.end()
        for name, op in self.job.operators.items():
            span = self._obs_spans[f"op:{name}"]
            span.set_attr("processed", op.processed)
            span.set_attr("emitted", op.emitted)
            span.end()
        for name, buf in self.sinks.items():
            span = self._obs_spans[f"sink:{name}"]
            span.set_attr("delivered", len(buf))
            span.end()
        self._job_span.set_attr("backpressure_events",
                                self.backpressure_events)
        self._job_span.set_attr("dropped_overflow", self.dropped_overflow)
        self._job_span.end()

    def _publish_metrics(self) -> None:
        """Final gauge values, published once at end-of-run."""
        if self.metrics is None:
            return
        self.metrics.gauge("executor.backpressure_events").set(
            self.backpressure_events)
        self.metrics.gauge("executor.dropped_overflow").set(
            self.dropped_overflow)
        for name, op in self.job.operators.items():
            self.metrics.gauge("op.processed", op=name).set(op.processed)
            self.metrics.gauge("op.emitted", op=name).set(op.emitted)
        for name, buf in self.sinks.items():
            self.metrics.gauge("sink.size", sink=name).set(len(buf))

    # -- run loop --------------------------------------------------------------------

    def run(self, source_batch: int = 256, max_cycles: int | None = None) -> dict[str, SinkBuffer]:
        """Run until sources are exhausted and channels drained."""
        if self.tracer is not None:
            self._ensure_spans()
            with self.tracer.activate(self._job_span):
                return self._run_loop(source_batch, max_cycles)
        return self._run_loop(source_batch, max_cycles)

    def _run_loop(self, source_batch: int,
                  max_cycles: int | None) -> dict[str, SinkBuffer]:
        cycles = 0
        route = self._route_batch if self.batch_mode else self._route
        while True:
            pulled = self._pull_sources(source_batch)
            for name, elements in pulled:
                route(name, elements)
            moved = self._drain_cycle()
            # Keep draining until quiescent this cycle.
            while self._drain_cycle():
                pass
            cycles += 1
            done_sources = len(self._finished_sources) == len(self.job.sources)
            if done_sources and not pulled and moved == 0:
                break
            if max_cycles is not None and cycles >= max_cycles:
                break
        if len(self._finished_sources) == len(self.job.sources):
            self._flush()
            self._close_spans()
            self._publish_metrics()
        return self.sinks

    def _flush(self) -> None:
        """End-of-stream: give every operator a chance to emit pendings."""
        if self._flushed:
            return
        self._flushed = True
        route = self._route_batch if self.batch_mode else self._route
        for name in self._topo:
            op = self._exec_ops[name]
            out = op.flush()
            if out:
                route(name, out)
                while self._drain_cycle():
                    pass

    @property
    def done(self) -> bool:
        """True once the job ran to completion (sources exhausted,
        channels drained, end-of-stream flush delivered)."""
        return self._flushed

    # -- checkpoints -------------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Take an aligned snapshot.  Channels must be drained first.

        State is captured per *logical* operator (chain members
        individually), so snapshots are portable across execution modes.
        """
        if any(self._channels.values()):
            raise CheckpointError("cannot checkpoint with items in flight; "
                                  "call run() or drain first")
        self._checkpoint_seq += 1
        started = (self.profiler.timer()
                   if self.profiler is not None else 0.0)
        snapshot = Checkpoint(
            checkpoint_id=self._checkpoint_seq,
            # Unmaterialized sources snapshot at position 0, so a
            # checkpoint taken before the first pull is a valid
            # restart-from-scratch restore point.
            source_positions={name: self._source_positions.get(name, 0)
                              for name in self.job.sources},
            operator_state={name: op.snapshot()
                            for name, op in self.job.operators.items()},
            emitted_to_sinks={s: len(buf) for s, buf in self.sinks.items()},
            data_counts=(self.injector.data_counts()
                         if self._data_chaos else {}),
        )
        if self.profiler is not None:
            self.profiler.record("checkpoint.duration_s", started)
        if self.metrics is not None:
            self.metrics.counter("executor.checkpoints").inc()
        if self._job_span is not None:
            self._job_span.add_event(
                "checkpoint", checkpoint_id=snapshot.checkpoint_id)
        return snapshot

    def restore(self, checkpoint: Checkpoint) -> None:
        """Rewind the job to a snapshot (sources, state, sink truncation)."""
        for name, pos in checkpoint.source_positions.items():
            if name not in self.job.sources:
                raise CheckpointError(f"snapshot references unknown source "
                                      f"{name!r}")
            self._materialize_source(name)
            self._source_positions[name] = pos
            if pos < len(self._source_buffers[name]):
                self._finished_sources.discard(name)
        for name, state in checkpoint.operator_state.items():
            if name not in self.job.operators:
                raise CheckpointError(f"snapshot references unknown operator "
                                      f"{name!r}")
            self.job.operators[name].restore(state)
        for sink, count in checkpoint.emitted_to_sinks.items():
            del self.sinks[sink].elements[count:]
        for channel in self._channels.values():
            channel.clear()
        if self._data_chaos:
            self.injector.restore_data_counts(checkpoint.data_counts)
        self._dead_letters.clear()
        self._flushed = False
        if self.metrics is not None:
            self.metrics.counter("executor.restores").inc()
        if self._job_span is not None:
            self._job_span.add_event(
                "restore", checkpoint_id=checkpoint.checkpoint_id)
