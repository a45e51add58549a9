"""Logical/physical plan split: the JobGraph -> ExecutionGraph compiler
and the stream engine that runs it.

:class:`ParallelExecutor` is the one engine.  Its ``parallelism``
defaults to 1, and :class:`~repro.streaming.runtime.Executor` is the
same class under the name the apps use, so ``Executor(job).run()`` is
this engine at width 1.  Two execution modes share one semantics:
**batch** (default; channel batches move through
``Operator.process_batch``, linear chainable runs fuse into one
:class:`~repro.streaming.chain.ChainedOperator` node, and sources
encode element runs as columnar :class:`RecordBatch` runs) and
**per-item** (``batch_mode=False``; element-at-a-time dispatch, the
semantic reference every batch path must match bit for bit).

A :class:`~repro.streaming.graph.JobGraph` is *logical*: it names
operators and edges, not instances.  :func:`compile_execution_graph`
lowers it to a physical :class:`ExecutionGraph` with **per-operator
parallelism**: every logical operator becomes N subtasks, and every
logical edge becomes one of

- a **forward** channel (subtask i -> subtask i, equal parallelism),
- a **hash shuffle** into a keyed operator (stable key -> key group ->
  subtask, see :mod:`repro.streaming.shuffle`) with watermarks
  broadcast to all receiving subtasks,
- a **rebalance** (deterministic round-robin) where parallelism changes
  on a non-keyed edge, or
- a **merge** into a sink (sinks are single buffers).

Sources are read as **splits** (the rescaling unit, analogous to topic
partitions) range-assigned to source subtasks — eventlog-backed sources
map partitions to splits through consumer groups
(:func:`~repro.streaming.connectors.parallel_log_source`).

Execution is single-threaded and deterministic: subtasks are
*modelled* concurrency.  Each subtask index is a worker lane; per-cycle
lane busy time is measured and the **modelled makespan** (sum over
cycles of the slowest lane) is what the parallel benchmarks report as
speedup, while semantics remain bit-reproducible.

Multi-input subtasks align watermarks per input channel (the minimum
across channels is forwarded — Flink's watermark valve), so a keyed
subtask never advances event time past its slowest upstream.

Checkpoints are aligned snapshots taken when quiescent.  Keyed state is
stored **by key group**, source progress **by split**, so a checkpoint
taken at parallelism N restores at parallelism M (*rescaling*): key
groups and splits are reassigned wholesale, scalar operator state
merges conservatively (watermarks regress to the minimum).  At
unchanged parallelism a restore is exact — the chaos suite's
recovered-sinks-equal-fault-free invariant holds bit-for-bit.

Width 1 costs no more than a single-instance engine would: a source
with one split is read in order without hashing a key (pre-encoded
connector batches splice in zero-copy, opaque values included), and a
hash edge into one subtask skips the hash while still refusing unkeyed
elements with the shuffle's :class:`~repro.util.errors.StreamError`.

Equivalence contract (property-tested): for key-aligned sources (same
key, same split — the default partitioner) and allowed lateness
covering the watermark skew between subtasks (no late drops), sinks at
any parallelism are identical to the per-item oracle at width 1
*modulo cross-key interleaving*; per-key subsequences are
bit-identical.
"""

from __future__ import annotations

import copy
import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..util.errors import CheckpointError, JobGraphError
from ..util.ids import split_ranges
from .barrier import BLOCKED, COMPLETE, IGNORED, STRAGGLER, BarrierAligner
from .batch import (ColumnarStream, RecordBatch, decode_items, elements_of,
                    item_weight, items_weight)
from .chain import ChainedOperator
from .element import CheckpointBarrier, Element, StreamItem, Watermark
from .errors import DLQ_SINK, FAIL, ErrorPolicy, batch_process, item_process
from .graph import JobGraph
from .join import IntervalJoinOperator
from .operators import Operator
from .runtime import SinkBuffer, build_chains, offer_batch
from .txn_sink import TransactionalSink
from .shuffle import (
    DEFAULT_KEY_GROUPS,
    key_group_for,
    key_group_range,
    subtask_for_key_group,
    subtasks_for_keys,
)

__all__ = [
    "PhysicalNode",
    "PhysicalEdge",
    "ExecutionGraph",
    "ParallelCheckpoint",
    "ParallelExecutor",
    "compile_execution_graph",
]

FORWARD = "forward"
HASH = "hash"
REBALANCE = "rebalance"
MERGE = "merge"  # into a sink


@dataclass(frozen=True)
class PhysicalEdge:
    """One physical channel group between execution nodes."""

    up: str
    down: str
    side: str | None
    mode: str  # forward | hash | rebalance | merge
    #: endpoints placed in different regions; must have been declared on
    #: the job graph (cross-region edges are never inferred)
    cross_region: bool = False
    #: one-way inter-region link latency charged per delivered packet
    link_cost_s: float = 0.0


@dataclass
class PhysicalNode:
    """A logical execution node (operator or fused chain) times N."""

    name: str
    members: list[str]  # logical operator names (len > 1 for chains)
    parallelism: int
    keyed: bool
    #: region this node's subtasks are pinned to (None: no placement)
    region: str | None = None


@dataclass
class ExecutionGraph:
    """The physical plan: nodes with parallelism, typed edges, splits."""

    job: JobGraph
    num_key_groups: int
    nodes: dict[str, PhysicalNode]
    edges: list[PhysicalEdge]
    topo: list[str]  # execution-node order (operators only)
    source_parallelism: dict[str, int]
    source_splits: dict[str, int]
    rename: dict[str, str]  # logical node -> execution node
    #: the region placement this plan was compiled under (None: flat)
    placement: Any = None
    #: logical node -> region, resolved at compile time (empty: flat)
    node_regions: dict[str, str] = field(default_factory=dict)

    def max_parallelism(self) -> int:
        widths = [n.parallelism for n in self.nodes.values()]
        widths += list(self.source_parallelism.values())
        return max(widths, default=1)

    def cross_region_edges(self) -> list[PhysicalEdge]:
        return [e for e in self.edges if e.cross_region]

    def describe(self) -> str:
        """Human-readable plan, one line per node/edge (debug aid)."""
        lines = [f"plan for job {self.job.name!r} "
                 f"(key groups: {self.num_key_groups})"]
        for name, p in sorted(self.source_parallelism.items()):
            where = (f" @{self.node_regions[name]}"
                     if name in self.node_regions else "")
            lines.append(f"  source {name} x{p} "
                         f"({self.source_splits[name]} splits){where}")
        for name in self.topo:
            node = self.nodes[name]
            kind = "keyed" if node.keyed else "stateless"
            where = f" @{node.region}" if node.region is not None else ""
            lines.append(f"  op {name} x{node.parallelism} ({kind}){where}")
        for e in self.edges:
            tag = f" [{e.side}]" if e.side else ""
            cross = (f" x-region +{e.link_cost_s * 1e3:.0f}ms"
                     if e.cross_region else "")
            lines.append(f"  edge {e.up} -> {e.down}{tag}: {e.mode}{cross}")
        return "\n".join(lines)


def _parallelism_of(parallelism: int | dict[str, int], node: str) -> int:
    if isinstance(parallelism, int):
        return parallelism
    return int(parallelism.get(node, parallelism.get("default", 1)))


def compile_execution_graph(job: JobGraph,
                            parallelism: int | dict[str, int] = 1,
                            *, num_key_groups: int = DEFAULT_KEY_GROUPS,
                            chaining: bool = True,
                            placement: Any = None) -> ExecutionGraph:
    """Lower a logical job graph to a physical execution graph.

    ``parallelism`` is either one width for every node or a per-node
    dict (``{"default": 2, "window_sum": 4}``); sources take their
    width from the same mapping.  Chains only fuse operators of equal
    parallelism (the extra gate threaded into
    :func:`~repro.streaming.runtime.build_chains`), so a parallelism
    change is always a channel — exactly like a shuffle.

    ``placement`` (a :class:`~repro.streaming.placement.RegionPlacement`)
    adds region affinity: placement pins override the job's own region
    pins, operators in different regions never fuse, and every edge the
    placement stretches across regions must have been declared via
    :meth:`~repro.streaming.graph.JobBuilder.declare_cross_region` —
    such edges carry the inter-region link cost into the runtime's
    modelled makespan.  A job with region pins and no placement is
    compiled under an implicit default placement.
    """
    job.validate()
    if placement is None and job.regions:
        from .placement import RegionPlacement
        placement = RegionPlacement()
    node_regions: dict[str, str] = {}
    if placement is not None:
        merged = {**job.regions, **dict(placement.regions)}
        all_nodes = (list(job.sources) + list(job.operators)
                     + list(job.sinks))
        node_regions = {
            n: merged.get(n, placement.default_region) for n in all_nodes
        }
    reg = node_regions.get
    p_of = lambda n: _parallelism_of(parallelism, n)  # noqa: E731
    for name in list(job.operators) + list(job.sources):
        if p_of(name) < 1:
            raise JobGraphError(f"node {name!r} has parallelism "
                                f"{p_of(name)} < 1")
    for name, op in job.operators.items():
        if op.requires_shuffle and p_of(name) > num_key_groups:
            raise JobGraphError(
                f"keyed operator {name!r} parallelism {p_of(name)} exceeds "
                f"num_key_groups {num_key_groups}")

    chains = build_chains(
        job, compatible=lambda u, d: (p_of(u) == p_of(d)
                                      and reg(u) == reg(d))
    ) if chaining else {}
    rename: dict[str, str] = {}
    nodes: dict[str, PhysicalNode] = {}
    in_chain: set[str] = set()
    for head, members in chains.items():
        name = "chain(" + "+".join(members) + ")"
        nodes[name] = PhysicalNode(name=name, members=list(members),
                                   parallelism=p_of(head), keyed=False,
                                   region=reg(head))
        for m in members:
            rename[m] = name
            in_chain.add(m)
    for name, op in job.operators.items():
        if name not in in_chain:
            nodes[name] = PhysicalNode(
                name=name, members=[name], parallelism=p_of(name),
                keyed=bool(op.requires_shuffle), region=reg(name))
            rename[name] = name

    source_parallelism: dict[str, int] = {}
    source_splits: dict[str, int] = {}
    for name, spec in job.sources.items():
        p = p_of(name)
        n_splits = spec.splits if spec.splits is not None else p
        if p > n_splits:
            raise JobGraphError(
                f"source {name!r} parallelism {p} exceeds its "
                f"{n_splits} splits")
        source_parallelism[name] = p
        source_splits[name] = n_splits
        rename[name] = name

    def _up_parallelism(up: str) -> int:
        if up in source_parallelism:
            return source_parallelism[up]
        return nodes[rename[up]].parallelism

    edges: list[PhysicalEdge] = []
    seen_edges: set[tuple[str, str, str | None]] = set()
    for up, down, side in job.edges:
        new_up = rename.get(up, up)
        new_down = rename.get(down, down)
        if new_up == new_down:  # edge internal to a chain
            continue
        cross = (placement is not None
                 and node_regions[up] != node_regions[down])
        if cross and (up, down) not in job.cross_region_edges:
            raise JobGraphError(
                f"edge {up!r} -> {down!r} crosses regions "
                f"{node_regions[up]!r} -> {node_regions[down]!r} but was "
                "never declared cross-region; declare it with "
                "declare_cross_region() or co-locate the nodes")
        if (new_up, new_down, side) in seen_edges:
            continue
        seen_edges.add((new_up, new_down, side))
        if down in job.sinks:
            mode = MERGE
        elif nodes[new_down].keyed:
            mode = HASH
        elif _up_parallelism(up) == nodes[new_down].parallelism:
            mode = FORWARD
        else:
            mode = REBALANCE
        cost = (placement.link_cost_s(node_regions[up], node_regions[down])
                if cross else 0.0)
        edges.append(PhysicalEdge(up=new_up, down=new_down, side=side,
                                  mode=mode, cross_region=cross,
                                  link_cost_s=cost))

    seen: set[str] = set()
    topo: list[str] = []
    for name in job.topological_operators():
        exec_name = rename[name]
        if exec_name not in seen:
            seen.add(exec_name)
            topo.append(exec_name)
    return ExecutionGraph(job=job, num_key_groups=num_key_groups,
                          nodes=nodes, edges=edges, topo=topo,
                          source_parallelism=source_parallelism,
                          source_splits=source_splits, rename=rename,
                          placement=placement, node_regions=node_regions)


@dataclass
class ParallelCheckpoint:
    """A consistent snapshot of a parallel job, portable across
    parallelism changes (keyed state by key group, sources by split)."""

    checkpoint_id: int
    num_key_groups: int
    parallelism: dict[str, int]  # logical operator/source -> width
    num_splits: dict[str, int]  # source -> split count
    source_positions: dict[str, dict[int, int]]  # source -> split -> pos
    keyed_state: dict[str, dict[int, Any]]  # op -> key group -> blob
    scalar_state: dict[str, list[Any]]  # op -> per-subtask snapshot
    sink_elements: dict[str, list[Element]]
    #: transient routing state (channel watermarks, aligned watermarks,
    #: round-robin cursors); applied on restore only when the plan shape
    #: matches (same parallelism everywhere), dropped on a rescale.
    routing_state: dict[str, Any] = field(default_factory=dict)
    #: unaligned-checkpoint channel state: (down, idx, side, up, up_idx)
    #: -> pre-barrier items spilled from a lagging channel.  Re-enqueued
    #: on restore; non-empty in-flight state pins the plan shape (an
    #: unaligned checkpoint cannot be restored at another parallelism).
    in_flight: dict[tuple, list] = field(default_factory=dict)
    #: load-shedding tier state: active per-source shed plans plus the
    #: per-source shed counts *as of this checkpoint's cut*, so a
    #: restore rewinds shed accounting together with source positions
    #: (replayed input re-sheds the same elements, counted once).
    shed_state: dict[str, Any] = field(default_factory=dict)
    #: chaos data-fault counters at the cut (per physical operator
    #: clone; see FaultInjector.data_counts): data-fault windows name
    #: records, so a restore rewinds them and replay re-poisons the
    #: same records — keeping committed output identical to a
    #: crash-free run under the same data faults.
    data_counts: dict[str, int] = field(default_factory=dict)


class ParallelExecutor:
    """Runs a physical plan: N subtasks per operator (1 by default),
    keyed shuffles, per-subtask checkpoints, deterministic
    single-threaded execution.

    ``run`` / ``checkpoint`` / ``restore`` / ``sinks`` / ``done`` are
    the surface every supervisor drives.  Operators run as clones named
    ``op[i]`` (the job's own operators stay untouched templates): read
    run state through :meth:`subtask_operators` /
    :meth:`logical_counters` or a checkpoint.  ``restore`` accepts
    checkpoints taken at a *different* parallelism (rescaling).
    """

    def __init__(self, job: JobGraph,
                 parallelism: int | dict[str, int] = 1,
                 *, num_key_groups: int = DEFAULT_KEY_GROUPS,
                 channel_capacity: int = 10_000,
                 drop_on_overflow: bool = False, batch_mode: bool = True,
                 chaining: bool = True, injector: Any = None,
                 tracer: Any = None, metrics: Any = None,
                 profiler: Any = None,
                 transactional_sinks: bool = False,
                 unaligned_after: int | None = None,
                 placement: Any = None) -> None:
        self.graph = compile_execution_graph(
            job, parallelism, num_key_groups=num_key_groups,
            chaining=chaining and batch_mode, placement=placement)
        self.placement = self.graph.placement
        self.job = job
        self.num_key_groups = num_key_groups
        self.channel_capacity = channel_capacity
        self.drop_on_overflow = drop_on_overflow
        self.batch_mode = batch_mode
        self.injector = injector
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self.transactional_sinks = transactional_sinks
        #: give up barrier alignment after this many macro cycles and
        #: spill in-flight items instead (None = align forever)
        self.unaligned_after = unaligned_after
        self.backpressure_events = 0
        self.dropped_overflow = 0
        #: cross-region traffic accounting: packets that traversed an
        #: inter-region link and the modelled latency they paid
        self.cross_region_packets = 0
        self.cross_region_transfer_s = 0.0
        #: elements dropped by the load-shedding tier (a subset of
        #: ``dropped_overflow``: shed counts flow through the same
        #: drop-accounting total the equivalence suites reconcile)
        self.shed_elements = 0
        self._shed: dict[str, tuple[int, int, int]] = {}
        self._shed_by_source: dict[str, int] = {}
        #: event-time frontiers for the live watermark-lag gauge:
        #: max timestamp pulled from any source / delivered per sink
        self._source_frontier = float("-inf")
        self._sink_frontier: dict[str, float] = {}
        self._gauge_cache: dict[str, Any] | None = None
        self._batch_sizes: dict[tuple[str, int], Any] = {}
        self._checkpoint_seq = 0
        self._flushed = False
        self._job_span: Any = None
        self._obs_spans: dict[str, Any] = {}
        self._coordinator: Any = None
        self._aligners: dict[tuple[str, int], BarrierAligner] = {}
        self._stalled_now: set[tuple[str, int]] = set()
        #: in-flight faulted packets: (release_cycle, key, sender, seq, items)
        self._held: list[tuple[int, tuple, tuple, int, list]] = []
        #: reliable-transport state per (channel key, sender)
        self._send_seq: dict[tuple, int] = {}
        self._recv_seq: dict[tuple, int] = {}
        self._ooo: dict[tuple, dict[int, list]] = {}
        self._cycle = 0
        self._build_physical_ops()
        self._build_channels()
        if transactional_sinks:
            self.sinks: dict[str, Any] = {
                s: TransactionalSink(s, self._sink_feeders(s))
                for s in job.sinks
            }
        else:
            self.sinks = {s: SinkBuffer(s) for s in job.sinks}
        self._wire_error_policies()
        # -- sources: split buffers + positions ---------------------------
        self._split_buffers: dict[str, dict[int, list[Element]]] = {}
        self._split_positions: dict[str, dict[int, int]] = {}
        #: columnar split encodings (one shared key dictionary per
        #: source, so merged pulls gather codes without re-encoding)
        self._split_streams: dict[str, dict[int, ColumnarStream]] = {}
        #: (source, split) -> "timestamps nondecreasing", computed on a
        #: split's first multi-split merge
        self._split_sorted: dict[tuple[str, int], bool] = {}
        #: (source, subtask) -> pre-merged pull plan (built lazily,
        #: dropped on restore — positions define the remaining suffix)
        self._merge_cache: dict[tuple[str, int], dict[str, Any]] = {}
        #: parallelism -> (key_dict, per-code subtask map) for the
        #: vectorized hash shuffle (single entry per width: bounded)
        self._hash_sub_cache: dict[int, tuple[list, np.ndarray]] = {}
        #: last key dictionary a width-1 hash edge found None-free
        self._keyed_kd: list | None = None
        self._finished_splits: dict[str, set[int]] = {
            name: set() for name in job.sources
        }
        self._source_assignment: dict[str, list[range]] = {
            name: split_ranges(self.graph.source_splits[name],
                               self.graph.source_parallelism[name])
            for name in job.sources
        }
        # -- modelled concurrency: one worker lane per subtask index ------
        lanes = self.graph.max_parallelism()
        self.lane_busy_s = [0.0] * lanes
        self._lane_cycle = [0.0] * lanes
        self.modeled_makespan_s = 0.0

    # -- plan materialization ------------------------------------------------

    def _build_physical_ops(self) -> None:
        """Clone each logical operator once per subtask.

        Clones are independent instances (state deep-copied, functions
        shared) named ``op[i]`` so injector crash sites, metrics and
        spans are subtask-scoped; the logical name is recoverable by
        stripping the suffix.
        """
        self._ops: dict[str, list[Operator]] = {}
        self._clones: dict[str, list[Operator]] = {
            m: [] for m in self.job.operators
        }
        for name in self.graph.topo:
            node = self.graph.nodes[name]
            subtasks: list[Operator] = []
            for i in range(node.parallelism):
                member_clones: list[Operator] = []
                for m in node.members:
                    clone = copy.deepcopy(self.job.operators[m])
                    clone.name = f"{m}[{i}]"
                    self._clones[m].append(clone)
                    member_clones.append(clone)
                if len(member_clones) == 1:
                    op: Operator = member_clones[0]
                else:
                    op = ChainedOperator(member_clones)
                    op.profiler = self.profiler
                subtasks.append(op)
            self._ops[name] = subtasks

    def _build_channels(self) -> None:
        """One bounded FIFO per (receiver subtask, side, sender subtask),
        plus per-channel watermark tracking for alignment."""
        #: (down, idx, side) -> {(up, up_idx): deque}
        self._channels: dict[tuple[str, int, str | None],
                             dict[tuple[str, int], deque]] = {}
        #: (down, idx, side) -> {(up, up_idx): watermark}
        self._channel_wm: dict[tuple[str, int, str | None],
                               dict[tuple[str, int], float]] = {}
        #: (down, idx, side) -> last aligned watermark delivered
        self._aligned_wm: dict[tuple[str, int, str | None], float] = {}
        #: round-robin cursors for rebalance edges: (edge_idx, up_idx)
        self._rr: dict[tuple[int, int], int] = {}
        self._down: dict[str, list[tuple[int, PhysicalEdge]]] = {}
        for edge_idx, edge in enumerate(self.graph.edges):
            self._down.setdefault(edge.up, []).append((edge_idx, edge))
            if edge.mode == MERGE:
                continue
            p_up = self._node_parallelism(edge.up)
            p_down = self.graph.nodes[edge.down].parallelism
            for j in range(p_down):
                key = (edge.down, j, edge.side)
                chans = self._channels.setdefault(key, {})
                wms = self._channel_wm.setdefault(key, {})
                self._aligned_wm.setdefault(key, float("-inf"))
                if edge.mode == FORWARD:
                    senders = [j]
                else:  # hash / rebalance: every upstream subtask connects
                    senders = list(range(p_up))
                for i in senders:
                    chans[(edge.up, i)] = deque()
                    wms[(edge.up, i)] = float("-inf")

    def _node_parallelism(self, name: str) -> int:
        if name in self.graph.source_parallelism:
            return self.graph.source_parallelism[name]
        return self.graph.nodes[name].parallelism

    def _sink_feeders(self, sink: str) -> tuple[tuple[str, int], ...]:
        """Every (upstream node, subtask) merging into one sink — the
        participants whose barriers gate the sink's 2PC pre-commit."""
        feeders: list[tuple[str, int]] = []
        for edge in self.graph.edges:
            if edge.mode == MERGE and edge.down == sink:
                for i in range(self._node_parallelism(edge.up)):
                    feeders.append((edge.up, i))
        return tuple(feeders)

    def _wire_error_policies(self) -> None:
        """Precompute per-node error-policy enforcement and create the
        reserved dead-letter sink when any policy can dead-letter.

        ``self._guard`` maps guarded single-operator execution nodes to
        their policy; fused chains enforce per member internally (the
        per-subtask chain clones get policies / the shared dead-letter
        list / the injector's fault source installed here).  The DLQ
        sink mirrors the job's sink flavour: transactional runs stage
        dead letters through the same 2PC protocol as regular output,
        so a crash can neither lose nor duplicate them."""
        policies = self.job.error_policies
        self._data_chaos = (self.injector is not None
                            and getattr(self.injector, "has_data_faults",
                                        False))
        self._fault_source = (self.injector.data_directives
                              if self._data_chaos else None)
        self._dead_letters: list[Element] = []
        self._guard: dict[str, ErrorPolicy] = {}
        dlq_nodes: list[str] = []
        for name in self.graph.topo:
            node = self.graph.nodes[name]
            if len(node.members) > 1:
                member_policies = {m: policies[m] for m in node.members
                                   if m in policies}
                if member_policies or self._data_chaos:
                    for op in self._ops[name]:
                        op.policies = member_policies
                        op.dead_letters = self._dead_letters
                        if self._data_chaos:
                            op.fault_source = self.injector.data_directives
                if any(p.can_dead_letter
                       for p in member_policies.values()):
                    dlq_nodes.append(name)
            else:
                policy = policies.get(node.members[0])
                if policy is not None and policy.kind != "fail":
                    self._guard[name] = policy
                elif self._data_chaos:
                    self._guard[name] = policy or FAIL
                if policy is not None and policy.can_dead_letter:
                    dlq_nodes.append(name)
        self._dlq_nodes = set(dlq_nodes)
        if self.job.needs_dead_letters:
            if self.transactional_sinks:
                feeders = tuple(
                    (n, i) for n in dlq_nodes
                    for i in range(self.graph.nodes[n].parallelism))
                self.sinks[DLQ_SINK] = TransactionalSink(DLQ_SINK, feeders)
            else:
                self.sinks[DLQ_SINK] = SinkBuffer(DLQ_SINK)

    def _emit_dead_letters(self, name: str, idx: int) -> None:
        """Route dead letters collected while subtask (name, idx) was
        processing into the reserved DLQ sink.  Transactional runs stage
        them against this feeder's open epoch; the sink frontier gauge is
        left alone (a poisoned record's timestamp may be garbage)."""
        letters = self._dead_letters
        sink = self.sinks[DLQ_SINK]
        if self.transactional_sinks:
            sink.deliver(list(letters), (name, idx))
        else:
            sink.elements.extend(letters)
        if self.metrics is not None:
            self.metrics.counter("sink.delivered",
                                 sink=DLQ_SINK).inc(len(letters))
        letters.clear()

    # -- checkpoint coordination ---------------------------------------------

    def attach_coordinator(self, coordinator: Any) -> None:
        """Wire a CheckpointCoordinator into the run loop.  Requires
        transactional sinks: with plain sink buffers, output written
        between the barrier cut and a crash would already be visible,
        so an in-band checkpoint could not be exactly-once."""
        if not self.transactional_sinks:
            raise CheckpointError(
                "coordinated checkpoints require transactional_sinks=True")
        self._coordinator = coordinator
        if not self._aligners:
            for name in self.graph.topo:
                node = self.graph.nodes[name]
                join = isinstance(self._ops[name][0], IntervalJoinOperator)
                sides = ("left", "right") if join else (None,)
                for idx in range(node.parallelism):
                    channels = [
                        (side, up, up_idx)
                        for side in sides
                        for (up, up_idx) in self._channels.get(
                            (name, idx, side), {})
                    ]
                    self._aligners[(name, idx)] = BarrierAligner(
                        tuple(channels),
                        unaligned_after=self.unaligned_after)

    def source_positions_snapshot(self) -> dict[str, dict[int, int]]:
        """Current per-split read positions (the coordinator records
        these at barrier injection: they are the checkpoint's cut)."""
        positions: dict[str, dict[int, int]] = {}
        for name in self.job.sources:
            self._materialize_source(name)
            positions[name] = dict(self._split_positions[name])
        return positions

    def inject_barriers(self, checkpoint_id: int) -> None:
        """Emit barrier N from every source subtask — including subtasks
        whose splits are empty or exhausted, so every downstream channel
        carries the marker and alignment can complete."""
        barrier = CheckpointBarrier(checkpoint_id)
        for name in sorted(self.job.sources):
            self._materialize_source(name)
            for idx in range(self.graph.source_parallelism[name]):
                self._emit(name, idx, [barrier])
                self._capture_rr(name, idx)

    def _capture_rr(self, up: str, up_idx: int) -> None:
        """A subtask forwarding its barrier freezes its round-robin
        cursors: they are part of checkpoint N's routing cut."""
        coord = self._coordinator
        if coord is None:
            return
        for edge_idx, edge in self._down.get(up, ()):
            if edge.mode == REBALANCE:
                key = (edge_idx, up_idx)
                coord.capture_rr(key, self._rr.get(key, 0))

    def drain_for_coordinator(self) -> int:
        """One macro drain (no source pull): lets the coordinator flow a
        final barrier through an already-exhausted job."""
        self._release_held()
        moved = self._drain_cycle()
        while self._drain_cycle():
            pass
        self._tick_aligners()
        self._end_cycle()
        self._cycle += 1
        return moved

    def on_checkpoint_finalized(self, checkpoint_id: int,
                                duration_s: float) -> None:
        """Coordinator callback after the atomic manifest commit."""
        if self._job_span is not None:
            self._job_span.add_event("checkpoint.finalized",
                                     checkpoint_id=checkpoint_id,
                                     duration_s=duration_s)
        if self.profiler is not None:
            self.profiler.record("coordinator.checkpoint_s",
                                 self.profiler.timer() - duration_s)

    # -- sources -------------------------------------------------------------

    def _materialize_source(self, name: str) -> dict[int, list[Element]]:
        if name in self._split_buffers:
            return self._split_buffers[name]
        spec = self.job.sources[name]
        n_splits = self.graph.source_splits[name]
        buffers: dict[int, list[Element]] = {s: [] for s in range(n_splits)}
        raw: list | None = None
        if spec.split_factory is not None:
            for s in range(n_splits):
                # decode_items: columnar connectors may hand back
                # RecordBatches; the canonical split buffer stays
                # per-element so positions mean the same in every mode.
                buffers[s] = decode_items(spec.split_factory(s, n_splits))
        elif n_splits == 1:
            # One split takes the whole source in order: nothing to
            # partition, so no key is hashed.  The raw items (possibly
            # connector-encoded RecordBatches) feed the columnar stream.
            raw = list(spec.iterate())
            buffers[0] = (decode_items(raw) if RecordBatch in map(type, raw)
                          else raw)
        else:
            for i, item in enumerate(decode_items(spec.iterate())):
                if isinstance(item, Watermark):
                    # A watermark in a source stream asserts event-time
                    # progress for the whole source: broadcast.
                    for s in range(n_splits):
                        buffers[s].append(item)
                elif spec.partitioner is not None:
                    buffers[spec.partitioner(item, n_splits)].append(item)
                elif item.key is not None:
                    # Key-aligned split: same key, same split — the
                    # precondition for per-key order preservation.
                    buffers[key_group_for(item.key, n_splits)].append(item)
                else:
                    buffers[i % n_splits].append(item)
        self._split_buffers[name] = buffers
        positions = self._split_positions.setdefault(name, {})
        for s in range(n_splits):
            positions.setdefault(s, 0)
        if self.batch_mode:
            if raw is not None:
                # Zero-copy splice of pre-encoded batches.
                self._split_streams[name] = {0: ColumnarStream(raw)}
            else:
                # One key dictionary across the source's splits.
                key_index: dict = {}
                key_dict: list = []
                self._split_streams[name] = {
                    s: ColumnarStream(buf, key_index, key_dict)
                    for s, buf in sorted(buffers.items())}
        return buffers

    def _pull_sources(self, batch: int) -> int:
        pulled = 0
        batch_mode = self.batch_mode
        for name in sorted(self.job.sources):
            buffers = self._materialize_source(name)
            positions = self._split_positions[name]
            finished = self._finished_splits[name]
            shed_plan = self._shed.get(name)
            for idx, splits in enumerate(self._source_assignment[name]):
                started = time.perf_counter()
                taken = (self._take_merged_columnar(name, idx, splits,
                                                    batch)
                         if batch_mode else None)
                if taken is None:
                    taken = self._take_merged(buffers, positions, finished,
                                              splits, batch)
                    if taken:
                        pulled += len(taken)
                elif taken:
                    pulled += items_weight(taken)
                if taken:
                    self._note_source_progress(taken)
                    if shed_plan is not None:
                        taken = self._shed_filter(name, taken, shed_plan)
                if taken:
                    self._emit(name, idx, taken)
                self._lane_cycle[idx] += time.perf_counter() - started
        return pulled

    def _note_source_progress(self, taken: list[StreamItem]) -> None:
        """Advance the source event-time frontier (merged pulls are
        time-ordered, so the last item carries the batch maximum)."""
        last = taken[-1]
        ts = (float(last.timestamps[-1]) if type(last) is RecordBatch
              else last.timestamp)
        if ts > self._source_frontier:
            self._source_frontier = ts

    # -- load shedding ---------------------------------------------------------

    #: Fibonacci-hash multiplier for the shed decision (SplitMix64 mix)
    _SHED_MIX = 0x9E3779B97F4A7C15

    @staticmethod
    def _shed_mask(ts: np.ndarray, keep: int, mod: int,
                   salt: int) -> np.ndarray:
        """Keep-mask over element timestamps.  The decision hashes the
        raw float64 timestamp bits, so it depends only on element
        *content* — never on read positions or batch boundaries.  That
        makes shedding crash-consistent: a replay after restore sheds
        exactly the same elements, in every execution mode."""
        bits = np.ascontiguousarray(ts, dtype=np.float64).view(np.uint64)
        h = (bits ^ np.uint64(salt)) * np.uint64(ParallelExecutor._SHED_MIX)
        h ^= h >> np.uint64(31)
        return (h % np.uint64(mod)) < np.uint64(keep)

    def set_shedding(self, source: str, keep: int, mod: int, *,
                     salt: int = 0) -> None:
        """Activate the load-shedding tier on one source: admit a
        deterministic ``keep/mod`` fraction of its elements and drop the
        rest at the pull boundary (before they enter any channel or
        operator).  Shed elements are counted in ``shed_elements`` and
        ``dropped_overflow`` — the existing drop-accounting path — and
        never reach operators or sinks, so exactly-once for *committed*
        records is preserved by construction."""
        if source not in self.job.sources:
            raise JobGraphError(f"unknown source {source!r}")
        if mod < 1 or not 0 <= keep <= mod:
            raise JobGraphError(
                f"shed ratio needs 0 <= keep <= mod, got {keep}/{mod}")
        if keep == mod:
            self._shed.pop(source, None)
        else:
            self._shed[source] = (int(keep), int(mod), int(salt))

    def clear_shedding(self, source: str) -> None:
        """Deactivate shedding on one source (already-shed counts stay)."""
        self._shed.pop(source, None)

    def _shed_filter(self, name: str, taken: list[StreamItem],
                     plan: tuple[int, int, int]) -> list[StreamItem]:
        keep, mod, salt = plan
        # Progress markers (watermarks) always pass; loose elements run
        # through the same vectorized mask as batch rows, so the shed
        # *set* is bit-identical across modes.
        loose = [it.timestamp for it in taken if type(it) is Element]
        loose_kept = iter(self._shed_mask(
            np.asarray(loose, dtype=np.float64), keep, mod, salt).tolist()
            if loose else ())
        shed = 0
        out: list[StreamItem] = []
        for item in taken:
            if type(item) is RecordBatch:
                mask = self._shed_mask(item.timestamps, keep, mod, salt)
                kept = int(mask.sum())
                shed += len(item) - kept
                if kept == len(item):
                    out.append(item)
                elif kept:
                    out.append(item.compress(mask))
            elif type(item) is Element and not next(loose_kept):
                shed += 1
            else:
                out.append(item)
        if shed:
            self.shed_elements += shed
            self.dropped_overflow += shed
            self._shed_by_source[name] = \
                self._shed_by_source.get(name, 0) + shed
            if self.metrics is not None:
                self.metrics.counter("source.shed", source=name).inc(shed)
        return out

    def shed_state_snapshot(self) -> dict[str, Any]:
        """Shed-tier state for a checkpoint: active plans + per-source
        shed counts at the cut (see ``ParallelCheckpoint.shed_state``)."""
        return {"plans": {k: list(v) for k, v in self._shed.items()},
                "shed": dict(self._shed_by_source)}

    def apply_shed_state(self, state: dict[str, Any],
                         sources: Iterable[str] | None = None) -> None:
        """Restore shed plans and rewind shed counters to a checkpoint's
        cut.  Counter rewinds adjust ``dropped_overflow`` by the same
        delta, so overflow-drop accounting is untouched.  ``sources``
        limits the rewind (regional recovery)."""
        if not state:
            return  # pre-shed-tier checkpoint: nothing to rewind
        plans = {k: tuple(v) for k, v in state.get("plans", {}).items()}
        counts = state.get("shed", {})
        names = self.job.sources if sources is None else sources
        for name in names:
            if name in plans:
                self._shed[name] = plans[name]  # type: ignore[assignment]
            else:
                self._shed.pop(name, None)
            snap = int(counts.get(name, 0))
            cur = self._shed_by_source.get(name, 0)
            if snap != cur:
                self.dropped_overflow = max(
                    0, self.dropped_overflow + snap - cur)
                self.shed_elements += snap - cur
                self._shed_by_source[name] = snap

    @staticmethod
    def _take_merged(buffers: dict[int, list[Element]],
                     positions: dict[int, int], finished: set[int],
                     splits: range, batch: int) -> list[StreamItem]:
        """Pull up to ``batch`` items from one subtask's splits, merged
        by event timestamp — per-split order is preserved and the merged
        stream is as time-ordered as the splits are, so a subtask owning
        several splits does not manufacture out-of-orderness beyond what
        the data carries (the per-partition-watermark analogue; without
        the merge, chunked round-robin over skewed splits makes a single
        watermark generator drop everything from the lagging split)."""
        heap: list[tuple[float, int]] = []
        for s in splits:
            if s in finished:
                continue
            if positions[s] >= len(buffers[s]):  # empty or fully consumed
                finished.add(s)
                continue
            item = buffers[s][positions[s]]
            heapq.heappush(heap, (item.timestamp, s))
        if len(heap) == 1:  # one live split: its order is the merge
            s = heap[0][1]
            pos = positions[s]
            taken = buffers[s][pos:pos + batch]
            positions[s] = pos + len(taken)
            if positions[s] >= len(buffers[s]):
                finished.add(s)
            return taken
        taken = []
        while heap and len(taken) < batch:
            _ts, s = heapq.heappop(heap)
            pos = positions[s]
            taken.append(buffers[s][pos])
            positions[s] = pos + 1
            if pos + 1 < len(buffers[s]):
                heapq.heappush(heap, (buffers[s][pos + 1].timestamp, s))
            else:
                finished.add(s)
        return taken

    def _merge_plan(self, name: str, idx: int,
                    splits: range) -> dict[str, Any] | None:
        """Columnar pull plan for one source subtask.

        A subtask with one live split pulls zero-copy slices of that
        split's :class:`ColumnarStream`, whatever it holds (markers,
        opaque values, unordered timestamps): with nothing to merge, the
        split's own order is the heap merge's.  Several live splits are
        pre-merged: their remaining suffixes, globally ordered by
        ``lexsort((split_id, timestamp))`` — provably the heap merge's
        order when per-split timestamps are nondecreasing (the heap pops
        by (ts, split) and per-split FIFO order is preserved by the
        stable sort).  Each pull is then a zero-copy slice.  Returns
        None (heap fallback) when a merge would need a live split that
        holds markers, opaque values, or out-of-order timestamps."""
        key = (name, idx)
        plan = self._merge_cache.get(key)
        if plan is not None:
            return plan
        streams = self._split_streams.get(name)
        if streams is None:
            return None
        positions = self._split_positions[name]
        live = [s for s in splits if positions[s] < len(streams[s])]
        if len(live) == 1:
            plan = {"split": live[0]}
        elif live:
            ts_parts, val_parts, code_parts, sid_parts = [], [], [], []
            kd: list | None = None
            for s in live:
                rb = streams[s].as_batch()
                if rb is None or not isinstance(rb.values, np.ndarray) \
                        or not self._split_is_sorted(name, s, rb):
                    return None
                pos = positions[s]
                ts_parts.append(rb.timestamps[pos:])
                val_parts.append(rb.values[pos:])
                code_parts.append(rb.key_codes[pos:])
                sid_parts.append(np.full(len(rb) - pos, s, dtype=np.int64))
                kd = rb.key_dict
            ts_all = np.concatenate(ts_parts)
            sid_all = np.concatenate(sid_parts)
            order = np.lexsort((sid_all, ts_all))
            merged = RecordBatch(
                ts_all[order], np.concatenate(val_parts)[order],
                py_values=True,
                key_codes=np.concatenate(code_parts)[order], key_dict=kd)
            plan = {"split": None, "merged": merged,
                    "sids": sid_all[order], "cursor": 0,
                    "total": len(merged)}
        else:
            plan = {"split": None, "merged": None, "cursor": 0, "total": 0}
        self._merge_cache[key] = plan
        return plan

    def _split_is_sorted(self, name: str, split: int,
                         rb: RecordBatch) -> bool:
        flag = self._split_sorted.get((name, split))
        if flag is None:
            ts = rb.timestamps
            flag = self._split_sorted[(name, split)] = bool(
                np.all(ts[1:] >= ts[:-1]))
        return flag

    def _take_merged_columnar(self, name: str, idx: int, splits: range,
                              batch: int) -> list | None:
        """Columnar twin of :meth:`_take_merged`: slice the pull plan
        and advance per-split positions by how many of the pulled rows
        each split contributed (so checkpointed offsets stay
        mode-independent).  Returns None to fall back to the heap."""
        plan = self._merge_plan(name, idx, splits)
        if plan is None:
            return None
        positions = self._split_positions[name]
        finished = self._finished_splits[name]
        streams = self._split_streams[name]
        s = plan["split"]
        if s is not None:
            stream = streams[s]
            pos = positions[s]
            end = min(pos + batch, len(stream))
            positions[s] = end
            if end >= len(stream):
                finished.update(splits)  # the other splits were spent
            return stream.slice(pos, end)
        cur = plan["cursor"]
        total = plan["total"]
        if cur >= total:
            for sv in splits:
                if positions[sv] >= len(streams[sv]):
                    finished.add(sv)
            return []
        end = min(cur + batch, total)
        plan["cursor"] = end
        out = plan["merged"].slice(cur, end)
        counts = np.bincount(plan["sids"][cur:end], minlength=splits.stop)
        touched = np.flatnonzero(counts).tolist()
        for sv in touched:
            positions[sv] += int(counts[sv])
        for sv in (splits if end >= total else touched):
            if positions[sv] >= len(streams[sv]):
                finished.add(sv)
        return [out]

    def _sources_done(self) -> bool:
        for name in self.job.sources:
            if name not in self._split_buffers:
                return False
            if len(self._finished_splits[name]) \
                    < self.graph.source_splits[name]:
                return False
        return True

    # -- channel plumbing ----------------------------------------------------

    def _offer(self, key: tuple[str, int, str | None],
               sender: tuple[str, int], items: list[StreamItem]) -> None:
        """Batch offer onto one physical channel, after any injected
        network faults: :func:`~repro.streaming.runtime.offer_batch`'s
        per-item backpressure/drop accounting."""
        injector = self.injector
        if injector is not None and getattr(injector, "has_channel_faults",
                                            False):
            items = self._apply_channel_faults(key, sender, items)
            if not items:
                return
        offer_batch(self, self._channels[key][sender], key[0], items)

    def _apply_channel_faults(self, key: tuple[str, int, str | None],
                              sender: tuple[str, int],
                              items: list[StreamItem]) -> list[StreamItem]:
        """Thread one offer through the injector's network-fault site.

        Channels are *reliable transport over an unreliable network*:
        every offer becomes a sequence-numbered packet, and the receiver
        reassembles in-order, dropping replays — so delay, partition,
        duplication and reordering are all masked (TCP-style) while the
        protocol underneath genuinely experiences them.  Delay/partition
        hold the packet for N cycles (head-of-line: later packets wait
        in the reassembly buffer); reorder delivers it one cycle late so
        its successors arrive first; duplicate re-delivers the same
        packet, which the receiver discards by sequence number.
        """
        directives = self.injector.on_channel_offer(
            key[0], key[1], sender[0], sender[1])
        ck = (key, sender)
        seq = self._send_seq.get(ck, 0)
        self._send_seq[ck] = seq + 1
        hold = directives.get("hold", 0)
        if directives.get("reorder"):
            hold = max(hold, 1)
        if directives.get("duplicate"):
            self._held.append((self._cycle + 1, key, sender, seq,
                               list(items)))
        if hold:
            self._held.append((self._cycle + hold, key, sender, seq,
                               list(items)))
            if self.metrics is not None:
                self.metrics.counter("channel.held",
                                     node=key[0]).inc(len(items))
            return []
        return self._receive(key, sender, seq, items)

    def _receive(self, key: tuple[str, int, str | None],
                 sender: tuple[str, int], seq: int,
                 items: list[StreamItem]) -> list[StreamItem]:
        """Receiver-side reassembly: returns the in-order run now
        deliverable (empty while waiting on an earlier packet)."""
        ck = (key, sender)
        expect = self._recv_seq.get(ck, 0)
        if seq < expect:
            return []  # replayed packet: already delivered
        if seq > expect:
            self._ooo.setdefault(ck, {}).setdefault(seq, list(items))
            return []
        out = list(items)
        expect += 1
        buffered = self._ooo.get(ck)
        while buffered and expect in buffered:
            out.extend(buffered.pop(expect))
            expect += 1
        self._recv_seq[ck] = expect
        return out

    def _release_held(self) -> None:
        """Deliver held (delayed/duplicated/partitioned) packets whose
        release cycle has come, through reassembly onto the channel."""
        if not self._held:
            return
        due = [h for h in self._held if h[0] <= self._cycle]
        if not due:
            return
        self._held = [h for h in self._held if h[0] > self._cycle]
        for _release, key, sender, seq, items in due:
            delivered = self._receive(key, sender, seq, items)
            if delivered:
                self._channels[key][sender].extend(delivered)

    def _reset_transport(self, region: set[str] | None = None) -> None:
        """Forget per-channel transport state (restore path): held and
        buffered packets are in-flight data the rewind regenerates."""
        if region is None:
            self._held = []
            self._send_seq = {}
            self._recv_seq = {}
            self._ooo = {}
            return
        self._held = [h for h in self._held if h[1][0] not in region]
        for state in (self._send_seq, self._recv_seq, self._ooo):
            for ck in [ck for ck in state if ck[0][0] in region]:
                del state[ck]

    def _transport_pending(self) -> bool:
        return bool(self._held) or any(self._ooo.values())

    def _charge_cross_region(self, edge: PhysicalEdge,
                             lanes: Iterable[int]) -> None:
        """Model one packet traversing an inter-region link per
        receiving lane: the link's one-way latency lands on the
        receiver's lane clock, so cross-region shuffles stretch the
        modelled makespan exactly like slow subtasks do."""
        for lane in lanes:
            self.cross_region_packets += 1
            self.cross_region_transfer_s += edge.link_cost_s
            self._lane_cycle[lane] += edge.link_cost_s

    def _emit(self, up: str, up_idx: int, items: list[StreamItem]) -> None:
        """Route one subtask's output batch down every out-edge."""
        if not items:
            return
        for edge_idx, edge in self._down.get(up, ()):
            if edge.mode == MERGE:
                if edge.cross_region:
                    self.cross_region_packets += 1
                    self.cross_region_transfer_s += edge.link_cost_s
                sink = self.sinks[edge.down]
                if self.transactional_sinks:
                    self._deliver_transactional(sink, edge.down,
                                                (up, up_idx), items)
                    continue
                delivered = elements_of(items)
                sink.elements.extend(delivered)
                if delivered:
                    self._note_sink_delivery(edge.down, delivered)
                    if self.metrics is not None:
                        self.metrics.counter(
                            "sink.delivered",
                            sink=edge.down).inc(len(delivered))
                continue
            if edge.mode == FORWARD:
                if edge.cross_region:
                    self._charge_cross_region(edge, (up_idx,))
                self._offer((edge.down, up_idx, edge.side), (up, up_idx),
                            items)
                continue
            p_down = self.graph.nodes[edge.down].parallelism
            if p_down == 1 and edge.mode == HASH:
                # One receiver owns every key group: skip the hash, keep
                # its refusal of unkeyed elements.
                self._require_keys(items)
                if edge.cross_region:
                    self._charge_cross_region(edge, (0,))
                self._offer((edge.down, 0, edge.side), (up, up_idx), items)
                continue
            buckets: list[list[StreamItem]] = [[] for _ in range(p_down)]
            if edge.mode == HASH:
                g = self.num_key_groups
                for item in items:
                    if isinstance(item, (Watermark, CheckpointBarrier)):
                        # Progress markers fan out to every subtask.
                        for bucket in buckets:
                            bucket.append(item)
                    elif type(item) is RecordBatch:
                        self._partition_batch(item, g, p_down, buckets)
                    else:
                        kg = key_group_for(item.key, g)
                        buckets[subtask_for_key_group(kg, g, p_down)].append(
                            item)
            else:  # REBALANCE
                rr_key = (edge_idx, up_idx)
                cursor = self._rr.get(rr_key, 0)
                for item in items:
                    if isinstance(item, (Watermark, CheckpointBarrier)):
                        for bucket in buckets:
                            bucket.append(item)
                    elif type(item) is RecordBatch:
                        n = len(item)
                        if p_down == 1:
                            buckets[0].append(item)
                        else:
                            dest = (cursor + np.arange(n)) % p_down
                            for j in range(p_down):
                                part = item.compress(dest == j)
                                if len(part):
                                    buckets[j].append(part)
                        cursor += n
                    else:
                        buckets[cursor % p_down].append(item)
                        cursor += 1
                self._rr[rr_key] = cursor
            if edge.cross_region:
                self._charge_cross_region(
                    edge, (j for j, b in enumerate(buckets) if b))
            for j, bucket in enumerate(buckets):
                if bucket:
                    self._offer((edge.down, j, edge.side), (up, up_idx),
                                bucket)

    def _require_keys(self, items: list[StreamItem]) -> None:
        """Raise the hash shuffle's StreamError if any element in
        ``items`` is unkeyed (a key dictionary found None-free is
        remembered, so a batch usually costs one identity check)."""
        for item in items:
            if type(item) is RecordBatch:
                kd = item.key_dict
                if item.key_codes is None:
                    key_group_for(None, self.num_key_groups)
                if kd is self._keyed_kd:
                    continue
                unkeyed = [i for i, k in enumerate(kd) if k is None]
                if not unkeyed:
                    self._keyed_kd = kd
                elif bool(np.any(item.key_codes == unkeyed[0])):
                    key_group_for(None, self.num_key_groups)
            elif type(item) is Element and item.key is None:
                key_group_for(None, self.num_key_groups)

    def _partition_batch(self, rb: RecordBatch, g: int, p: int,
                         buckets: list[list[StreamItem]]) -> None:
        """Hash-shuffle one columnar batch: one subtask lookup per
        *distinct* key in the batch's dictionary, then a vectorized
        gather/partition over the codes column.  Unkeyed rows fall back
        to per-element routing so the StreamError raises at exactly the
        position the per-item path would raise it."""
        codes = rb.key_codes
        kd = rb.key_dict
        cached = self._hash_sub_cache.get(p)
        if codes is not None and cached is not None and cached[0] is kd:
            sub = cached[1]  # cache hit implies the dict is None-free
        elif codes is None or any(k is None for k in kd):
            for e in rb.to_elements():
                kg = key_group_for(e.key, g)
                buckets[subtask_for_key_group(kg, g, p)].append(e)
            return
        else:
            sub = np.asarray(subtasks_for_keys(kd, g, p), dtype=np.int64)
            self._hash_sub_cache[p] = (kd, sub)
        if p == 1:
            buckets[0].append(rb)
            return
        dest = sub[codes]
        lo = int(dest.min())
        if lo == int(dest.max()):
            buckets[lo].append(rb)  # whole batch owned by one subtask
            return
        for j in range(p):
            part = rb.compress(dest == j)
            if len(part):
                buckets[j].append(part)

    def _deliver_transactional(self, sink: Any, sink_name: str,
                               feeder: tuple[str, int],
                               items: list[StreamItem]) -> None:
        """Merge a feeder's output into a 2PC sink: elements stage into
        the open transaction, barriers advance the sink's alignment and
        — once all feeders delivered — pre-commit (phase 1, acked to
        the coordinator)."""
        batch: list[Element] = []
        delivered = 0
        for item in items:
            if isinstance(item, CheckpointBarrier):
                if batch:
                    sink.deliver(batch, feeder)
                    self._note_sink_delivery(sink_name, batch)
                    delivered += len(batch)
                    batch = []
                cid = sink.on_barrier(feeder, item.checkpoint_id)
                if cid is not None and self._coordinator is not None:
                    self._coordinator.on_sink_ack(cid, sink_name)
            elif type(item) is RecordBatch:
                item.extend_elements(batch)
            elif isinstance(item, Element):
                batch.append(item)
        if batch:
            sink.deliver(batch, feeder)
            self._note_sink_delivery(sink_name, batch)
            delivered += len(batch)
        if self.metrics is not None and delivered:
            self.metrics.counter("sink.delivered",
                                 sink=sink_name).inc(delivered)

    def _note_sink_delivery(self, sink_name: str,
                            elements: list[Element]) -> None:
        """Advance a sink's event-time frontier (feeds the live
        ``sink.watermark_lag_s`` gauge)."""
        ts = max(e.timestamp for e in elements)
        last = self._sink_frontier.get(sink_name)
        if last is None or ts > last:
            self._sink_frontier[sink_name] = ts

    # -- watermark alignment -------------------------------------------------

    def _align(self, key: tuple[str, int, str | None],
               sender: tuple[str, int],
               pending: Iterable[StreamItem]) -> list[StreamItem]:
        """Replace raw channel watermarks with aligned ones: a subtask's
        event time is the minimum over all its input channels, and an
        aligned watermark is delivered only when that minimum advances."""
        wms = self._channel_wm[key]
        single = len(wms) == 1  # one input: the minimum is its watermark
        aligned_wm = self._aligned_wm[key]
        out: list[StreamItem] = []
        for item in pending:
            if type(item) is Watermark:
                ts = item.timestamp
                if ts > wms[sender]:
                    wms[sender] = ts
                    aligned = ts if single else min(wms.values())
                    if aligned > aligned_wm:
                        aligned_wm = aligned
                        out.append(item if aligned == ts
                                   else Watermark(aligned))
            else:
                out.append(item)
        self._aligned_wm[key] = aligned_wm
        return out

    # -- drain cycles --------------------------------------------------------

    def _process(self, name: str, idx: int, side: str | None,
                 items: list[StreamItem]) -> None:
        op = self._ops[name][idx]
        injector = self.injector
        guard = self._guard.get(name)
        if self.batch_mode:
            if side is not None:
                # Joins have no columnar kernel: decode at the channel.
                items = decode_items(items)
            process = batch_process(op, side, guard, self._dead_letters,
                                    self._fault_source)
            if injector is None:
                out = process(items)
            else:
                out = injector.intercept_batch(op, items, process)
            self._emit(name, idx, out)
        else:
            process = item_process(op, side, guard, self._dead_letters,
                                   self._fault_source)
            for item in items:
                if injector is not None:
                    injector.before_item(op)
                self._emit(name, idx, process(item))
        if self._dead_letters:
            self._emit_dead_letters(name, idx)

    def _drain_cycle(self) -> int:
        moved = 0
        profiler = self.profiler
        metrics = self.metrics
        coordinated = self._coordinator is not None
        for name in self.graph.topo:
            node = self.graph.nodes[name]
            join = isinstance(self._ops[name][0], IntervalJoinOperator)
            sides = ("left", "right") if join else (None,)
            for idx in range(node.parallelism):
                if self._stalled_now and (name, idx) in self._stalled_now:
                    continue
                started = time.perf_counter()
                drained = 0
                for side in sides:
                    chans = self._channels.get((name, idx, side))
                    if not chans:
                        continue
                    for sender in sorted(chans):
                        if coordinated:
                            drained += self._drain_channel_coordinated(
                                name, idx, side, sender)
                            continue
                        pending = chans[sender]
                        if not pending:
                            continue
                        chans[sender] = deque()
                        drained += items_weight(pending)
                        items = self._align((name, idx, side), sender,
                                            pending)
                        if items:
                            self._process(name, idx, side, items)
                moved += drained
                if drained:
                    elapsed = time.perf_counter() - started
                    self._lane_cycle[idx] += elapsed
                    if metrics is not None:
                        self._batch_size_summary(name, idx).observe(drained)
                    if profiler is not None and not isinstance(
                            self._ops[name][idx], ChainedOperator):
                        profiler.record(
                            "op.wall_s", started,
                            op=self._ops[name][idx].name)
        return moved

    def _batch_size_summary(self, name: str, idx: int) -> Any:
        # Registry lookups render labelled keys; cache the handle.
        summary = self._batch_sizes.get((name, idx))
        if summary is None:
            summary = self._batch_sizes[(name, idx)] = self.metrics.summary(
                "op.batch_size", op=f"{name}[{idx}]")
        return summary

    # -- coordinated draining (barrier-aware) ---------------------------------

    def _drain_channel_coordinated(self, name: str, idx: int,
                                   side: str | None,
                                   sender: tuple[str, int]) -> int:
        """Drain one channel under barrier rules: stop at a barrier that
        blocks the channel, spill items from lagging channels after an
        unaligned snapshot, and run alignment/snapshot transitions as
        markers are consumed."""
        key = (name, idx, side)
        chan_id = (side, sender[0], sender[1])
        aligner = self._aligners[(name, idx)]
        chans = self._channels[key]
        pending = chans[sender]
        if not pending or aligner.is_blocked(chan_id):
            return 0
        moved = 0
        segment: list[StreamItem] = []

        def _flush_segment() -> None:
            if not segment:
                return
            if aligner.is_spilling(chan_id):
                # Pre-barrier in-flight data after an unaligned snapshot
                # — copy into the checkpoint before processing mutates
                # downstream state.  Decoded: spilled state is
                # representation-independent, so an unaligned checkpoint
                # restores identically in any execution mode.
                self._coordinator.on_spill(
                    aligner.current_id,
                    (name, idx, side, sender[0], sender[1]),
                    decode_items(segment))
            items = self._align(key, sender, segment)
            if items:
                self._process(name, idx, side, items)

        while pending:
            item = pending.popleft()
            moved += item_weight(item)
            if isinstance(item, CheckpointBarrier):
                _flush_segment()
                segment = []
                if self._on_channel_barrier(name, idx, side, sender,
                                            chan_id, item):
                    return moved  # channel blocked until alignment ends
            else:
                segment.append(item)
        _flush_segment()
        return moved

    def _on_channel_barrier(self, name: str, idx: int, side: str | None,
                            sender: tuple[str, int], chan_id: tuple,
                            barrier: CheckpointBarrier) -> bool:
        """Consume one barrier marker; returns True when the channel is
        now blocked (stop draining it this pass)."""
        aligner = self._aligners[(name, idx)]
        result = aligner.on_barrier(chan_id, barrier.checkpoint_id)
        coord = self._coordinator
        if result.action == IGNORED:
            return False
        if result.action == STRAGGLER:
            # The spill for this channel is complete; its watermark cut
            # was captured at the unaligned snapshot.
            coord.on_spill_closed(result.checkpoint_id,
                                  (name, idx, side, sender[0], sender[1]))
            return False
        # BLOCKED and COMPLETE both mark this channel's cut point.
        coord.capture_channel_wm(
            (name, idx, side), sender,
            self._channel_wm[(name, idx, side)][sender])
        if result.action == COMPLETE:
            self._complete_alignment(name, idx, result.checkpoint_id,
                                     aligner)
            return False
        return True  # BLOCKED

    def _complete_alignment(self, name: str, idx: int, checkpoint_id: int,
                            aligner: BarrierAligner) -> None:
        """All channels aligned: snapshot, ack, forward the barrier."""
        if self.metrics is not None:
            self.metrics.summary(
                "checkpoint.alignment_cycles",
                op=f"{name}[{idx}]").observe(aligner.last_alignment_cycles)
        self._snapshot_subtask(name, idx, checkpoint_id)
        self._forward_barrier(name, idx, checkpoint_id)

    def _complete_unaligned(self, name: str, idx: int, checkpoint_id: int,
                            spill_channels: tuple) -> None:
        """Alignment timed out: snapshot *now*, open a spill for each
        lagging channel (capturing its watermark cut first), and let the
        barrier overtake the in-flight data."""
        coord = self._coordinator
        for chan_id in spill_channels:
            side, up, up_idx = chan_id
            coord.on_spill_open(checkpoint_id,
                                (name, idx, side, up, up_idx))
            coord.capture_channel_wm(
                (name, idx, side), (up, up_idx),
                self._channel_wm[(name, idx, side)][(up, up_idx)])
        if self.metrics is not None:
            self.metrics.counter("checkpoint.unaligned",
                                 op=f"{name}[{idx}]").inc()
        self._snapshot_subtask(name, idx, checkpoint_id)
        self._forward_barrier(name, idx, checkpoint_id)

    def _forward_barrier(self, name: str, idx: int,
                         checkpoint_id: int) -> None:
        for side in self._subtask_sides(name, idx):
            self._coordinator.capture_aligned_wm(
                (name, idx, side), self._aligned_wm[(name, idx, side)])
        self._emit(name, idx, [CheckpointBarrier(checkpoint_id)])
        if name in self._dlq_nodes and DLQ_SINK in self.sinks \
                and self.transactional_sinks:
            # Dead-letter feeders also gate the DLQ's 2PC pre-commit:
            # this subtask's barrier closes its dead-letter epoch.
            cid = self.sinks[DLQ_SINK].on_barrier((name, idx),
                                                  checkpoint_id)
            if cid is not None and self._coordinator is not None:
                self._coordinator.on_sink_ack(cid, DLQ_SINK)
        self._capture_rr(name, idx)

    def _subtask_sides(self, name: str, idx: int) -> list[str | None]:
        join = isinstance(self._ops[name][0], IntervalJoinOperator)
        return [s for s in (("left", "right") if join else (None,))
                if (name, idx, s) in self._aligned_wm]

    def _snapshot_subtask(self, name: str, idx: int,
                          checkpoint_id: int) -> None:
        """Snapshot one subtask's members on barrier passage and ack the
        coordinator.  The injector's barrier-phase crash site sits just
        before the state read — a subtask dying *during* its snapshot."""
        subtask = f"{name}[{idx}]"
        op = self._ops[name][idx]
        if self.injector is not None:
            self.injector.before_snapshot(op, subtask, checkpoint_id)
        started = time.perf_counter()
        node = self.graph.nodes[name]
        keyed: dict[str, dict[int, Any]] = {}
        scalar: dict[str, Any] = {}
        for m in node.members:
            clone = self._clones[m][idx]
            if self.job.operators[m].requires_shuffle:
                keyed[m] = clone.snapshot_key_groups(self.num_key_groups)
                scalar[m] = clone.scalar_snapshot()
            else:
                scalar[m] = clone.snapshot()
        self._coordinator.on_subtask_ack(checkpoint_id, name, idx,
                                         keyed, scalar)
        if self._data_chaos:
            # This subtask's data-fault counters are exactly at the
            # barrier cut: everything pre-barrier is processed, nothing
            # post-barrier is.  Report them so the assembled checkpoint
            # can rewind fault windows to the same records on restore.
            all_counts = self.injector.data_counts()
            self._coordinator.capture_data_counts(
                checkpoint_id,
                {self._clones[m][idx].name:
                 all_counts.get(self._clones[m][idx].name, 0)
                 for m in node.members})
        if self.profiler is not None:
            self.profiler.record("checkpoint.snapshot_s", started,
                                 op=subtask)

    def _tick_aligners(self) -> None:
        """Once per macro cycle: aligners still waiting count a pending
        cycle; past the unaligned threshold they flip to spill mode."""
        if self._coordinator is None:
            return
        for (name, idx), aligner in self._aligners.items():
            result = aligner.on_cycle()
            if result is not None:
                self._complete_unaligned(name, idx, result.checkpoint_id,
                                         result.spill_channels)

    # -- run loop ------------------------------------------------------------

    def run(self, source_batch: int = 256,
            max_cycles: int | None = None) -> dict[str, SinkBuffer]:
        """Run until sources are exhausted and channels drained."""
        if self.tracer is not None:
            self._ensure_spans()
            with self.tracer.activate(self._job_span):
                return self._run_loop(source_batch, max_cycles)
        return self._run_loop(source_batch, max_cycles)

    def _end_cycle(self) -> None:
        """Fold this cycle's lane times into the modelled makespan: the
        cycle takes as long as its busiest lane (subtasks overlap)."""
        busiest = max(self._lane_cycle, default=0.0)
        if busiest > 0.0:
            self.modeled_makespan_s += busiest
            for lane, busy in enumerate(self._lane_cycle):
                self.lane_busy_s[lane] += busy
                self._lane_cycle[lane] = 0.0

    def _begin_cycle(self) -> None:
        """Macro-cycle prologue: release held channel batches, compute
        the stalled-subtask set, and beat heartbeats for everyone else
        (a stalled subtask is fail-silent: it neither drains nor beats,
        so only the failure detector notices)."""
        self._release_held()
        injector = self.injector
        if injector is not None and getattr(injector, "has_stalls", False):
            self._stalled_now = {
                (name, idx)
                for name in self.graph.topo
                for idx in range(self.graph.nodes[name].parallelism)
                if injector.stall_check(self._ops[name][idx],
                                        f"{name}[{idx}]")
            }
        elif self._stalled_now:
            self._stalled_now = set()
        if self._coordinator is not None:
            for name in self.graph.topo:
                for idx in range(self.graph.nodes[name].parallelism):
                    if (name, idx) not in self._stalled_now:
                        self._coordinator.heartbeat(f"{name}[{idx}]")

    def _pending_items(self) -> bool:
        return any(chan for chans in self._channels.values()
                   for chan in chans.values())

    def _run_loop(self, source_batch: int,
                  max_cycles: int | None) -> dict[str, SinkBuffer]:
        cycles = 0
        idle = 0
        coordinator = self._coordinator
        while True:
            self._begin_cycle()
            pulled = self._pull_sources(source_batch)
            if coordinator is not None:
                coordinator.on_cycle_start(self)
            moved = self._drain_cycle()
            while self._drain_cycle():
                pass
            self._tick_aligners()
            self._end_cycle()
            self._cycle += 1
            # Live refresh: gauges used to be set only at end-of-run,
            # which starved any observer of a running job (the
            # autoscaler most of all).  Publishing per macro cycle keeps
            # backpressure/progress/watermark-lag gauges current.
            if self.metrics is not None:
                self._publish_metrics()
            if coordinator is not None:
                coordinator.on_cycle_end(self)
            cycles += 1
            if self._sources_done() and not pulled and moved == 0:
                # Blocked, stalled or held items keep the loop alive:
                # barriers and fault windows resolve with more cycles.
                if not self._transport_pending() \
                        and not self._pending_items():
                    break
                idle += 1
                if idle > 100_000:
                    raise CheckpointError(
                        "run loop made no progress for 100000 cycles; "
                        "items are permanently stuck in channels")
            else:
                idle = 0
            if max_cycles is not None and cycles >= max_cycles:
                break
        if self._sources_done() and not self._transport_pending() \
                and not self._pending_items():
            self._flush()
            self._close_spans()
            self._publish_metrics()
        return self.sinks

    def _flush(self) -> None:
        if self._flushed:
            return
        self._flushed = True
        for name in self.graph.topo:
            node = self.graph.nodes[name]
            for idx in range(node.parallelism):
                started = time.perf_counter()
                out = self._ops[name][idx].flush()
                if out:
                    self._emit(name, idx, out)
                self._lane_cycle[idx] += time.perf_counter() - started
                if out:
                    while self._drain_cycle():
                        pass
        self._end_cycle()

    @property
    def done(self) -> bool:
        return self._flushed

    # -- modelled speedup ------------------------------------------------------

    @property
    def serial_busy_s(self) -> float:
        """Total subtask busy time — what one lane would have paid."""
        return sum(self.lane_busy_s)

    @property
    def modeled_speedup(self) -> float:
        """Serial work over modelled makespan: the concurrency the plan
        actually exposed (≤ max parallelism; 1.0 when single-lane)."""
        if self.modeled_makespan_s <= 0.0:
            return 1.0
        return self.serial_busy_s / self.modeled_makespan_s

    # -- counters / introspection ---------------------------------------------

    def logical_counters(self, operator: str) -> tuple[int, int]:
        """(processed, emitted) summed across an operator's subtasks."""
        clones = self._clones[operator]
        return (sum(c.processed for c in clones),
                sum(c.emitted for c in clones))

    def subtask_operators(self, operator: str) -> list[Operator]:
        """The per-subtask clones of one logical operator."""
        return list(self._clones[operator])

    def source_item_timestamps(self, name: str) -> list[float]:
        """Timestamps of every item in one source's split buffers, in
        split order.  The scaling supervisor sorts these once to build
        its deterministic arrival model (how many elements have
        "arrived" by sim-time t)."""
        buffers = self._materialize_source(name)
        return [item.timestamp
                for _, buf in sorted(buffers.items()) for item in buf]

    def source_pulled(self, name: str) -> int:
        """Total items pulled so far across one source's splits."""
        self._materialize_source(name)
        return sum(self._split_positions[name].values())

    # -- checkpoints -----------------------------------------------------------

    def checkpoint(self) -> ParallelCheckpoint:
        """Aligned snapshot: keyed state by key group, sources by split,
        sink contents in full (so a restore into a *fresh* executor —
        the rescaling path — reproduces the run exactly)."""
        if self._pending_items() or self._transport_pending():
            raise CheckpointError("cannot checkpoint with items in flight; "
                                  "call run() or drain first")
        self._checkpoint_seq += 1
        started = (self.profiler.timer()
                   if self.profiler is not None else 0.0)
        parallelism: dict[str, int] = {}
        keyed_state: dict[str, dict[int, Any]] = {}
        scalar_state: dict[str, list[Any]] = {}
        for m, op in self.job.operators.items():
            clones = self._clones[m]
            parallelism[m] = len(clones)
            if op.requires_shuffle:
                groups: dict[int, Any] = {}
                for clone in clones:
                    groups.update(
                        clone.snapshot_key_groups(self.num_key_groups))
                keyed_state[m] = groups
                scalar_state[m] = [c.scalar_snapshot() for c in clones]
            else:
                scalar_state[m] = [c.snapshot() for c in clones]
        source_positions: dict[str, dict[int, int]] = {}
        for name in self.job.sources:
            # An unread source snapshots at position 0 without being
            # read, so a checkpoint before the first pull is a valid
            # restart-from-scratch point even while the source's log
            # is unavailable.
            source_positions[name] = dict(self._split_positions.get(
                name, dict.fromkeys(range(self.graph.source_splits[name]),
                                    0)))
            parallelism[name] = self.graph.source_parallelism[name]
        snapshot = ParallelCheckpoint(
            checkpoint_id=self._checkpoint_seq,
            num_key_groups=self.num_key_groups,
            parallelism=parallelism,
            num_splits=dict(self.graph.source_splits),
            source_positions=source_positions,
            keyed_state=keyed_state,
            scalar_state=scalar_state,
            sink_elements={s: list(buf.elements)
                           for s, buf in self.sinks.items()},
            routing_state={
                "channel_wm": {k: dict(v)
                               for k, v in self._channel_wm.items()},
                "aligned_wm": dict(self._aligned_wm),
                "rr": dict(self._rr),
            },
            shed_state=self.shed_state_snapshot(),
            data_counts=(self.injector.data_counts()
                         if self._data_chaos else {}),
        )
        if self.profiler is not None:
            self.profiler.record("checkpoint.duration_s", started)
        if self.metrics is not None:
            self.metrics.counter("executor.checkpoints").inc()
        if self._job_span is not None:
            self._job_span.add_event("checkpoint",
                                     checkpoint_id=snapshot.checkpoint_id)
        return snapshot

    def restore(self, checkpoint: ParallelCheckpoint) -> dict[str, int]:
        """Rewind to a snapshot — possibly taken at another parallelism.

        At unchanged parallelism the restore is exact (routing state
        included).  On a rescale, key groups and splits are reassigned
        to the new subtask ranges and scalar state merges conservatively
        (see ``restore_parallel`` / ``restore_rescaled`` on operators).
        Returns recovery stats: ``replayed_elements`` is how much source
        input the rewind will re-read (the recovery cost regional
        restarts minimize).
        """
        if checkpoint.num_key_groups != self.num_key_groups:
            raise CheckpointError(
                f"snapshot has {checkpoint.num_key_groups} key groups, "
                f"this plan {self.num_key_groups}; key-group counts are "
                "fixed for a job's lifetime")
        replayed = 0
        for name, positions in checkpoint.source_positions.items():
            if name not in self.job.sources:
                raise CheckpointError(
                    f"snapshot references unknown source {name!r}")
            if checkpoint.num_splits[name] \
                    != self.graph.source_splits[name]:
                raise CheckpointError(
                    f"source {name!r}: snapshot has "
                    f"{checkpoint.num_splits[name]} splits, this plan "
                    f"{self.graph.source_splits[name]}; pin "
                    "SourceSpec.splits to rescale")
            buffers = self._materialize_source(name)
            finished = self._finished_splits[name]
            finished.clear()
            for s, pos in positions.items():
                replayed += max(0, self._split_positions[name][s] - pos)
                self._split_positions[name][s] = pos
                if pos >= len(buffers[s]):
                    finished.add(s)
        self._merge_cache.clear()  # rewound positions: re-plan pulls
        for m in self.job.operators:
            if m not in checkpoint.scalar_state:
                raise CheckpointError(
                    f"snapshot missing operator {m!r}")
            clones = self._clones[m]
            old_p = checkpoint.parallelism[m]
            exact = old_p == len(clones)
            if m in checkpoint.keyed_state:
                groups = checkpoint.keyed_state[m]
                for i, clone in enumerate(clones):
                    mine = {kg: groups[kg]
                            for kg in key_group_range(self.num_key_groups,
                                                      len(clones), i)
                            if kg in groups}
                    scalars = ([checkpoint.scalar_state[m][i]] if exact
                               else list(checkpoint.scalar_state[m]))
                    clone.restore_parallel(mine, scalars, primary=(i == 0))
            else:
                for i, clone in enumerate(clones):
                    if exact:
                        clone.restore(checkpoint.scalar_state[m][i])
                    else:
                        clone.restore_rescaled(
                            list(checkpoint.scalar_state[m]))
        for name, buf in self.sinks.items():
            elements = list(checkpoint.sink_elements.get(name, ()))
            if hasattr(buf, "restore_elements"):
                buf.restore_elements(elements)  # 2PC: truncate open txns
            else:
                buf.elements[:] = elements
        for chans in self._channels.values():
            for sender in chans:
                chans[sender].clear()
        self._reset_transport()
        routing = checkpoint.routing_state
        same_shape = (routing
                      and routing["channel_wm"].keys()
                      == self._channel_wm.keys()
                      and all(routing["channel_wm"][k].keys()
                              == self._channel_wm[k].keys()
                              for k in self._channel_wm))
        if same_shape:
            for k in self._channel_wm:
                self._channel_wm[k] = dict(routing["channel_wm"][k])
            self._aligned_wm = dict(routing["aligned_wm"])
            self._rr = dict(routing["rr"])
        else:
            for k, wms in self._channel_wm.items():
                for sender in wms:
                    wms[sender] = float("-inf")
                self._aligned_wm[k] = float("-inf")
            self._rr = {}
        if checkpoint.in_flight:
            if not same_shape:
                raise CheckpointError(
                    "an unaligned checkpoint (spilled in-flight state) "
                    "cannot be restored into a different plan shape; "
                    "restore at the original parallelism first")
            for (down, idx, side, up, up_idx), items \
                    in checkpoint.in_flight.items():
                self._channels[(down, idx, side)][(up, up_idx)].extend(
                    items)
        for aligner in self._aligners.values():
            aligner.reset()
        self.apply_shed_state(checkpoint.shed_state)
        if self._data_chaos:
            # Data-fault windows name records, not wall-clock events:
            # rewinding the counters makes replay re-poison exactly the
            # records the lost epoch poisoned, so committed output stays
            # identical to a crash-free run under the same data faults.
            self.injector.restore_data_counts(checkpoint.data_counts)
        self._dead_letters.clear()
        self._flushed = False
        if self._coordinator is not None:
            self._coordinator.on_executor_restored()
        if self.metrics is not None:
            self.metrics.counter("executor.restores").inc()
        if self._job_span is not None:
            self._job_span.add_event("restore",
                                     checkpoint_id=checkpoint.checkpoint_id)
        return {"replayed_elements": replayed,
                "restored_nodes": len(self.graph.topo)}

    def restore_region(self, checkpoint: ParallelCheckpoint,
                       region: set[str]) -> dict[str, int]:
        """Partial recovery: rewind only the nodes in ``region`` (an
        execution-node/source/sink set from
        :func:`~repro.streaming.coordinator.failover_region_of`),
        leaving every other subtask's state, channels and progress
        untouched.  Only valid at the checkpoint's own parallelism —
        regional recovery is a restart, not a rescale.  Returns recovery
        stats; ``replayed_elements`` counts only the region's sources,
        which is what makes partial recovery cheaper than global.
        """
        if checkpoint.num_key_groups != self.num_key_groups:
            raise CheckpointError("key-group count mismatch")
        for m in self.job.operators:
            if self.graph.rename[m] in region \
                    and checkpoint.parallelism.get(m) \
                    != len(self._clones[m]):
                raise CheckpointError(
                    f"regional restore needs matching parallelism for "
                    f"{m!r}; use restore() to rescale")
        replayed = 0
        for name in self.job.sources:
            if name not in region:
                continue
            positions = checkpoint.source_positions.get(name, {})
            buffers = self._materialize_source(name)
            finished = self._finished_splits[name]
            finished.clear()
            for s, pos in positions.items():
                replayed += max(0, self._split_positions[name][s] - pos)
                self._split_positions[name][s] = pos
                if pos >= len(buffers[s]):
                    finished.add(s)
            for key in [k for k in self._merge_cache if k[0] == name]:
                del self._merge_cache[key]
        restored_nodes = 0
        for m in self.job.operators:
            exec_name = self.graph.rename[m]
            if exec_name not in region:
                continue
            restored_nodes += 1
            clones = self._clones[m]
            if m in checkpoint.keyed_state:
                groups = checkpoint.keyed_state[m]
                for i, clone in enumerate(clones):
                    mine = {kg: groups[kg]
                            for kg in key_group_range(self.num_key_groups,
                                                      len(clones), i)
                            if kg in groups}
                    clone.restore_parallel(
                        mine, [checkpoint.scalar_state[m][i]],
                        primary=(i == 0))
            else:
                for i, clone in enumerate(clones):
                    clone.restore(checkpoint.scalar_state[m][i])
        for name, buf in self.sinks.items():
            if name not in region:
                continue
            elements = list(checkpoint.sink_elements.get(name, ()))
            if hasattr(buf, "restore_elements"):
                buf.restore_elements(elements)
            else:
                buf.elements[:] = elements
        routing = checkpoint.routing_state
        channel_wm = routing.get("channel_wm", {}) if routing else {}
        aligned_wm = routing.get("aligned_wm", {}) if routing else {}
        for key, chans in self._channels.items():
            down, idx, side = key
            if down not in region:
                continue
            for sender in chans:
                chans[sender].clear()
                saved = channel_wm.get(key, {})
                self._channel_wm[key][sender] = saved.get(
                    sender, float("-inf"))
            self._aligned_wm[key] = aligned_wm.get(key, float("-inf"))
        self._reset_transport(region)
        if checkpoint.in_flight:
            for (down, idx, side, up, up_idx), items \
                    in checkpoint.in_flight.items():
                if down in region:
                    self._channels[(down, idx, side)][(up, up_idx)].extend(
                        items)
        rr = routing.get("rr", {}) if routing else {}
        for edge_idx, edge in enumerate(self.graph.edges):
            if edge.mode == REBALANCE and edge.up in region:
                for key in list(self._rr):
                    if key[0] == edge_idx:
                        self._rr[key] = rr.get(key, 0)
        for (name, idx), aligner in self._aligners.items():
            if name in region:
                aligner.reset()
        self.apply_shed_state(
            checkpoint.shed_state,
            sources=[n for n in self.job.sources if n in region])
        self._flushed = False
        if self._coordinator is not None:
            self._coordinator.on_executor_restored()
            for name in region:
                if name in self.graph.nodes:
                    for idx in range(self.graph.nodes[name].parallelism):
                        self._coordinator.monitor.reset(f"{name}[{idx}]")
        if self.metrics is not None:
            self.metrics.counter("executor.regional_restores").inc()
        if self._job_span is not None:
            self._job_span.add_event(
                "restore.regional",
                checkpoint_id=checkpoint.checkpoint_id,
                region=",".join(sorted(region)))
        return {"replayed_elements": replayed,
                "restored_nodes": restored_nodes}

    # -- observability ---------------------------------------------------------

    def _mode_name(self) -> str:
        if not self.batch_mode:
            return "per_item"
        return "chained" if any(len(n.members) > 1
                                for n in self.graph.nodes.values()) \
            else "batched"

    def _ensure_spans(self) -> None:
        """Job span -> logical operator spans -> per-subtask child spans
        (only when parallelism > 1), so a parallel trace nests physical
        structure under the logical graph the other suites assert on."""
        if self.tracer is None or self._job_span is not None:
            return
        self._job_span = self.tracer.start_span(
            f"job:{self.job.name}",
            attrs={"mode": self._mode_name(),
                   "max_parallelism": self.graph.max_parallelism()})
        for name in sorted(self.job.sources):
            span = self.tracer.start_span(
                f"source:{name}", parent=self._job_span,
                attrs={"parallelism":
                       self.graph.source_parallelism[name]})
            self._obs_spans[f"source:{name}"] = span
        for name in self.job.topological_operators():
            width = len(self._clones[name])
            span = self.tracer.start_span(
                f"op:{name}", parent=self._job_span,
                attrs={"parallelism": width})
            self._obs_spans[f"op:{name}"] = span
            if width > 1:
                for i in range(width):
                    self._obs_spans[f"op:{name}[{i}]"] = \
                        self.tracer.start_span(f"op:{name}[{i}]",
                                               parent=span,
                                               attrs={"subtask": i})
        for name in sorted(self.job.sinks):
            self._obs_spans[f"sink:{name}"] = self.tracer.start_span(
                f"sink:{name}", parent=self._job_span)

    def _close_spans(self) -> None:
        if self._job_span is None:
            return
        for name in self.job.sources:
            span = self._obs_spans[f"source:{name}"]
            buffers = self._split_buffers.get(name, {})
            span.set_attr("records",
                          sum(len(b) for b in buffers.values()))
            span.end()
        for name in self.job.operators:
            width = len(self._clones[name])
            if width > 1:
                for i, clone in enumerate(self._clones[name]):
                    sub = self._obs_spans[f"op:{name}[{i}]"]
                    sub.set_attr("processed", clone.processed)
                    sub.set_attr("emitted", clone.emitted)
                    sub.end()
            processed, emitted = self.logical_counters(name)
            span = self._obs_spans[f"op:{name}"]
            span.set_attr("processed", processed)
            span.set_attr("emitted", emitted)
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
        """Publish executor/operator/sink gauges.  Called every macro
        cycle (live refresh) and at end-of-run; handles are cached so
        the per-cycle cost is attribute sets, not label rendering.
        Only deterministic counts go out: the wall-clock lane times stay
        on the executor (``modeled_makespan_s``), so a run's metrics and
        spans reproduce exactly."""
        if self.metrics is None:
            return
        cache = self._gauge_cache
        if cache is None:
            m = self.metrics
            cache = self._gauge_cache = {
                "backpressure": m.gauge("executor.backpressure_events"),
                "dropped": m.gauge("executor.dropped_overflow"),
                "shed": m.gauge("executor.shed_elements"),
                "ops": [
                    (m.gauge("op.processed", op=name),
                     m.gauge("op.emitted", op=name),
                     [(clone, m.gauge("subtask.processed", op=clone.name))
                      for clone in self._clones[name]])
                    for name in self.job.operators
                ],
                "sinks": [
                    (name, buf, m.gauge("sink.size", sink=name),
                     m.gauge("sink.watermark_lag_s", sink=name))
                    for name, buf in self.sinks.items()
                ],
            }
        cache["backpressure"].set(self.backpressure_events)
        cache["dropped"].set(self.dropped_overflow)
        cache["shed"].set(self.shed_elements)
        for g_processed, g_emitted, clones in cache["ops"]:
            processed = emitted = 0
            for clone, g_sub in clones:
                g_sub.set(clone.processed)
                processed += clone.processed
                emitted += clone.emitted
            g_processed.set(processed)
            g_emitted.set(emitted)
        frontier = self._source_frontier
        for name, buf, g_size, g_lag in cache["sinks"]:
            g_size.set(len(buf))
            last = self._sink_frontier.get(name)
            if last is not None and frontier > float("-inf"):
                g_lag.set(max(0.0, frontier - last))
