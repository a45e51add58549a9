"""Channel and plan helpers shared by the stream engine, plus the
``Executor`` name the apps run jobs under.

There is one engine: :class:`~repro.streaming.execution.ParallelExecutor`.
``Executor`` is that class itself (its ``parallelism`` defaults to 1),
so ``Executor(job).run()`` is the engine at width 1.  This module keeps
what the engine's plan build and channels use:

- :class:`SinkBuffer`, the plain (non-transactional) sink;
- :func:`offer_batch`, the bounded-channel batch offer with per-item
  backpressure/drop accounting;
- :func:`build_chains`, the operator-fusion rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..util.errors import BackpressureOverflow
from .batch import decode_items, items_weight, take_prefix
from .element import Element, StreamItem
from .graph import JobGraph

__all__ = ["Executor", "SinkBuffer", "build_chains", "offer_batch"]


def __getattr__(name: str) -> Any:
    # ``Executor`` resolves lazily: execution.py imports this module.
    if name == "Executor":
        from .execution import ParallelExecutor
        return ParallelExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    O(1), whether the offer holds one item or a whole batch.

    Items count element-weighted (a RecordBatch is as many items as it
    has rows), so backpressure and drop decisions are
    representation-blind.  The partial-extend paths (drop, raise) split
    batches at the exact element boundary; the raise path also decodes,
    so stalled channel *contents* match per-item execution.  Counters
    land on ``executor.backpressure_events`` / ``dropped_overflow`` and,
    with metrics on, the ``channel.*`` counters of ``node``.
    """
    # Per-item execution never builds a batch, so lengths are weights:
    # O(1) reads where a scan of the channel would make the per-item
    # offer-per-element loop quadratic in the channel length.
    if executor.batch_mode:
        occupancy = items_weight(channel)
        n = items_weight(items)
    else:
        occupancy = len(channel)
        n = len(items)
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
        # Mirror item-at-a-time semantics exactly: appends go on until
        # the channel reaches 10x capacity and the item that finds it
        # full raises, so ``i0`` items land and ``i0 + 1`` appends
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
    gate — the plan compiler (:mod:`repro.streaming.execution`) uses it
    to keep a chain from spanning a parallelism or region change.
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
