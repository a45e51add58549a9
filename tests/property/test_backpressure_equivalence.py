"""Property tests: backpressure/drop accounting is mode-independent.

``backpressure_events`` and ``dropped_overflow`` are accounted per
*item* in every execution mode — the batched channel offer computes the
same arithmetic in O(1) that the per-item offer performs one append at a
time.  These tests pin the contract under small channel capacities,
including the overflow-raise path: ``_offer_batch`` used to count every
item of a raising batch as backpressure and extend nothing, diverging
from per-item execution in both the counter and the channel contents.

Chaining removes the channels between fused operators, so a chained run
observes backpressure only at chain boundaries: its counters are bounded
by the batched run's, equal when nothing fuses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import Element, Executor, JobBuilder, TumblingWindows
from repro.util.errors import BackpressureOverflow

MODES = {
    "per_item": dict(batch_mode=False, chaining=False),
    "batched": dict(batch_mode=True, chaining=False),
    "chained": dict(batch_mode=True, chaining=True),
}

stream_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    min_size=1, max_size=60)


def _to_elements(rows):
    return [Element(value={"k": k, "v": float(i)}, timestamp=ts)
            for i, (k, ts) in enumerate(rows)]


def _window_builder(elements):
    builder = JobBuilder("bp")
    (builder.source("s", elements)
            .with_watermarks(2.0, emit_every=3)
            .key_by(lambda v: v["k"])
            .window(TumblingWindows(10.0), "count")
            .sink("out"))
    return builder


def _chain_free_builder(elements):
    """key_by alone cannot fuse (window breaks the chain, sources are
    not operators) — the chained plan is the batched plan."""
    builder = JobBuilder("bp-free")
    (builder.source("s", elements)
            .key_by(lambda v: v["k"])
            .window(TumblingWindows(10.0), "count")
            .sink("out"))
    return builder


def _chainable_builder(elements):
    """map/filter/key_by fuse under chaining; window breaks the chain."""
    builder = JobBuilder("bp-chain")
    (builder.source("s", elements)
            .map(lambda v: {"k": v["k"], "v": v["v"] + 1.0})
            .filter(lambda v: v["v"] >= 0.0)
            .with_watermarks(2.0, emit_every=3)
            .key_by(lambda v: v["k"])
            .window(TumblingWindows(10.0), "count")
            .sink("out"))
    return builder


def _run(make_builder, elements, mode, capacity, drop, source_batch):
    executor = Executor(make_builder(elements).build(),
                        channel_capacity=capacity,
                        drop_on_overflow=drop, **MODES[mode])
    raised = False
    try:
        executor.run(source_batch=source_batch)
    except BackpressureOverflow:
        raised = True
    return executor, raised


def _outcome(executor, raised):
    return (raised,
            executor.backpressure_events,
            executor.dropped_overflow,
            {name: sink.elements for name, sink in executor.sinks.items()})


class TestPerItemBatchedEquality:
    @given(stream_strategy,
           st.integers(min_value=1, max_value=6),     # channel capacity
           st.integers(min_value=1, max_value=40),    # source batch
           st.booleans())                             # drop_on_overflow
    @settings(max_examples=60, deadline=None)
    def test_counters_and_sinks_match(self, rows, capacity, source_batch,
                                      drop):
        """For any stream/capacity/batch/drop-flag combination the
        per-item and batched executors agree exactly — on whether they
        raise, on both counters, and on sink contents."""
        elements = _to_elements(rows)
        per_item = _outcome(*_run(_window_builder, elements, "per_item",
                                  capacity, drop, source_batch))
        batched = _outcome(*_run(_window_builder, elements, "batched",
                                 capacity, drop, source_batch))
        assert batched == per_item

    @given(stream_strategy, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_drop_decisions_are_per_item(self, rows, capacity):
        """Under drop_on_overflow the *same elements* survive in both
        modes (the batch path keeps the first ``room`` items, exactly
        like ``room`` successful per-item offers)."""
        elements = _to_elements(rows)
        executors = {}
        for mode in ("per_item", "batched"):
            executor, raised = _run(_window_builder, elements, mode,
                                    capacity, True, 16)
            assert not raised  # dropping never overflows
            executors[mode] = executor
        assert (executors["batched"].sinks["out"].elements
                == executors["per_item"].sinks["out"].elements)
        assert (executors["batched"].dropped_overflow
                == executors["per_item"].dropped_overflow)


class TestChainedBounds:
    @given(stream_strategy,
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_chained_backpressure_bounded_by_batched(self, rows, capacity,
                                                     source_batch):
        """No drops: all modes produce identical sinks; fusing removes
        intra-chain channels so chained backpressure never exceeds
        batched, and per-item equals batched exactly."""
        elements = _to_elements(rows)
        results = {}
        for mode in MODES:
            executor, raised = _run(_chainable_builder, elements, mode,
                                    capacity, False, source_batch)
            if raised:  # raise-path equality is pinned separately below
                return
            results[mode] = executor
        base = results["per_item"]
        assert (results["batched"].backpressure_events
                == base.backpressure_events)
        assert (results["chained"].backpressure_events
                <= results["batched"].backpressure_events)
        for mode in ("batched", "chained"):
            assert (results[mode].sinks["out"].elements
                    == base.sinks["out"].elements), mode

    @given(stream_strategy, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_chain_free_graph_all_modes_equal(self, rows, capacity):
        """On a graph where nothing fuses the chained plan is the
        batched plan — counters match across all three modes."""
        elements = _to_elements(rows)
        guard = Executor(_chain_free_builder(elements).build(),
                         chaining=True)
        # the graph really is chain-free
        assert all(len(n.members) == 1 for n in guard.graph.nodes.values())
        outcomes = {mode: _outcome(*_run(_chain_free_builder, elements, mode,
                                         capacity, False, 8))
                    for mode in MODES}
        assert outcomes["batched"] == outcomes["per_item"]
        assert outcomes["chained"] == outcomes["per_item"]


class TestOverflowRaise:
    @given(st.integers(min_value=1, max_value=3),     # channel capacity
           st.integers(min_value=0, max_value=5))     # extra items past 10x
    @settings(max_examples=30, deadline=None)
    def test_raise_path_counter_and_channel_equality(self, capacity, extra):
        """A source batch larger than 10x capacity must raise in both
        modes with identical backpressure counts and identical channel
        occupancy (the _offer_batch regression: it counted all n items
        and appended none)."""
        n = capacity * 10 + 1 + extra
        elements = _to_elements([(0, float(i)) for i in range(n)])
        states = {}
        for mode in ("per_item", "batched"):
            executor, raised = _run(_window_builder, elements, mode,
                                    capacity, False, n)
            assert raised, mode
            states[mode] = executor
        per_item, batched = states["per_item"], states["batched"]
        assert batched.backpressure_events == per_item.backpressure_events
        per_item_channels = {(key, sender): list(ch)
                             for key, chans in per_item._channels.items()
                             for sender, ch in chans.items()}
        batched_channels = {(key, sender): list(ch)
                            for key, chans in batched._channels.items()
                            for sender, ch in chans.items()}
        assert batched_channels == per_item_channels
        # the channel stalled exactly at the 10x limit, not at 0 or n
        assert sum(len(ch) for ch in per_item_channels.values()) \
            == capacity * 10

    def test_raise_message_names_the_node(self):
        elements = _to_elements([(0, float(i)) for i in range(25)])
        executor = Executor(_window_builder(elements).build(),
                            channel_capacity=2)
        with pytest.raises(BackpressureOverflow, match="10x capacity"):
            executor.run(source_batch=25)
