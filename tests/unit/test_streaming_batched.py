"""Unit tests: batched execution, operator chaining, vectorized kernels.

The contract under test: batched (and chained) execution is
bit-identical to per-item execution — same sink contents, same operator
state, same processed/emitted counters, same overflow accounting.
"""

import numpy as np
import pytest

from repro.streaming import (
    ChainedOperator,
    Element,
    Executor,
    FilterOperator,
    JobBuilder,
    MapOperator,
    TumblingWindows,
    Watermark,
    WatermarkGenerator,
)
from repro.util.errors import StreamError
from repro.util.metrics import Summary


def _els(n, key_mod=3):
    return [Element(value={"k": i % key_mod, "v": float(i)},
                    timestamp=float(i)) for i in range(n)]


MODES = {
    "per_item": dict(batch_mode=False, chaining=False),
    "batched": dict(batch_mode=True, chaining=False),
    "chained": dict(batch_mode=True, chaining=True),
}


def chained_nodes(executor):
    """Fused execution nodes of the executor's plan -> member names."""
    return {node.name: node.members
            for node in executor.graph.nodes.values()
            if len(node.members) > 1}


def run_all_modes(make_builder, **executor_kwargs):
    """Build the same job per mode (fresh operator state) and run it."""
    out = {}
    for mode, flags in MODES.items():
        executor = Executor(make_builder().build(), **flags,
                            **executor_kwargs)
        sinks = executor.run()
        out[mode] = (executor, sinks)
    return out


class TestChainPlan:
    def _linear(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(10))
                .map(lambda v: v["v"])
                .filter(lambda v: v >= 2.0)
                .map(lambda v: v * 2)
                .sink("out"))
        return builder

    def test_linear_run_fuses_into_one_node(self):
        executor = Executor(self._linear().build())
        chains = chained_nodes(executor)
        assert len(chains) == 1
        (members,) = chains.values()
        assert members == ["map_0", "filter_0", "map_1"]
        # One channel into the chain instead of three hops.
        assert len(executor._channels) == 1

    def test_chaining_disabled_keeps_channels(self):
        executor = Executor(self._linear().build(), chaining=False)
        assert chained_nodes(executor) == {}
        assert len(executor._channels) == 3

    def test_per_item_mode_never_chains(self):
        executor = Executor(self._linear().build(), batch_mode=False)
        assert chained_nodes(executor) == {}

    def test_keyed_state_breaks_chain(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(10))
                .map(lambda v: v)
                .key_by(lambda v: v["k"])
                .reduce(lambda a, b: {"k": a["k"], "v": a["v"] + b["v"]})
                .map(lambda v: v["v"])
                .sink("out"))
        executor = Executor(builder.build())
        chains = chained_nodes(executor)
        # map+key_by fuse; reduce stays alone; the tail map has no
        # chainable neighbour.
        assert list(chains.values()) == [["map_0", "key_by_0"]]
        assert "reduce_0" in executor.graph.nodes
        assert "map_1" in executor.graph.nodes

    def test_fanout_breaks_chain(self):
        builder = JobBuilder("j")
        handle = builder.source("s", _els(10)).map(lambda v: v["v"], name="m")
        handle.map(lambda v: v + 1, name="a").sink("out_a")
        handle.map(lambda v: v - 1, name="b").sink("out_b")
        executor = Executor(builder.build())
        # m has two downstreams -> no fusion anywhere.
        assert chained_nodes(executor) == {}
        sinks = executor.run()
        assert len(sinks["out_a"]) == 10
        assert len(sinks["out_b"]) == 10

    def test_join_never_chains(self):
        builder = JobBuilder("j")
        left = builder.source("l", _els(5)).key_by(lambda v: v["k"])
        right = builder.source("r", _els(5)).key_by(lambda v: v["k"])
        left.join(right, -1.0, 1.0).sink("out")
        executor = Executor(builder.build())
        # The side-tagged join edges are unfusible, and each key_by has
        # no chainable neighbour left — nothing fuses at all.
        assert chained_nodes(executor) == {}
        assert ("join_0", 0, "left") in executor._channels
        assert ("join_0", 0, "right") in executor._channels


class TestChainedOperator:
    def test_needs_two_operators(self):
        with pytest.raises(StreamError):
            ChainedOperator([MapOperator("m", lambda v: v)])

    def test_handle_and_batch_agree(self):
        def make():
            return ChainedOperator([
                MapOperator("m", lambda v: v * 2),
                FilterOperator("f", lambda v: v > 2),
            ])
        items = [Element(float(i), float(i)) for i in range(5)]
        items.insert(2, Watermark(1.0))
        a, b = make(), make()
        per_item = [o for item in items for o in a.handle(item)]
        batched = b.process_batch(items)
        assert per_item == batched
        assert a.operators[0].processed == b.operators[0].processed
        assert a.operators[1].emitted == b.operators[1].emitted

    def test_flush_cascades_through_members(self):
        wm_gen = WatermarkGenerator("w", max_lateness=0.0)
        chain = ChainedOperator([MapOperator("m", lambda v: v), wm_gen])
        chain.process_batch([Element(1.0, 5.0)])
        out = chain.flush()
        assert out == [Watermark(float("inf"))]

    def test_snapshot_restore_roundtrip(self):
        wm_gen = WatermarkGenerator("w", max_lateness=1.0)
        chain = ChainedOperator([MapOperator("m", lambda v: v), wm_gen])
        chain.process_batch([Element(1.0, 5.0)])
        snap = chain.snapshot()
        assert snap["m"] is None
        fresh_wm = WatermarkGenerator("w", max_lateness=1.0)
        fresh = ChainedOperator([MapOperator("m", lambda v: v), fresh_wm])
        fresh.restore(snap)
        assert fresh_wm.snapshot() == wm_gen.snapshot()


class TestModeEquivalence:
    def test_windowed_pipeline_identical(self):
        def make_builder():
            builder = JobBuilder("j")
            (builder.source("s", _els(60))
                    .map(lambda v: {"k": v["k"], "v": v["v"] * 2})
                    .with_watermarks(1.0, emit_every=7)
                    .key_by(lambda v: v["k"])
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"])
                    .sink("out"))
            return builder
        runs = run_all_modes(make_builder)
        base_sink = runs["per_item"][1]["out"].elements
        for mode in ("batched", "chained"):
            assert runs[mode][1]["out"].elements == base_sink

    def test_counters_identical_across_modes(self):
        def make_builder():
            builder = JobBuilder("j")
            (builder.source("s", _els(40))
                    .map(lambda v: v["v"])
                    .filter(lambda v: v % 3 > 0)
                    .flat_map(lambda v: [v, -v])
                    .sink("out"))
            return builder
        runs = run_all_modes(make_builder)
        per_item = runs["per_item"][0]
        for mode in ("batched", "chained"):
            executor = runs[mode][0]
            for name in executor.job.operators:
                # The executor runs clones of the job's operators: read
                # its counters, not the untouched templates.
                counters = executor.logical_counters(name)
                assert counters[0] > 0, (mode, name)
                assert counters == per_item.logical_counters(name), \
                    (mode, name)

    def test_overflow_drop_accounting_identical(self):
        def make_builder():
            builder = JobBuilder("j")
            (builder.source("s", _els(100))
                    .map(lambda v: v)
                    .sink("out"))
            return builder
        runs = run_all_modes(make_builder, channel_capacity=10,
                             drop_on_overflow=True)
        # Chaining changes the channel structure, but per-item and
        # batched (unchained) must account drops identically.
        a = runs["per_item"][0]
        b = runs["batched"][0]
        assert a.dropped_overflow == b.dropped_overflow > 0
        assert runs["per_item"][1]["out"].elements == \
               runs["batched"][1]["out"].elements

    def test_backpressure_accounting_identical(self):
        def make_builder():
            builder = JobBuilder("j")
            (builder.source("s", _els(100))
                    .map(lambda v: v)
                    .sink("out"))
            return builder
        counts = {}
        for mode in ("per_item", "batched"):
            executor = Executor(make_builder().build(), channel_capacity=10,
                                **MODES[mode])
            executor.run(source_batch=100)
            counts[mode] = executor.backpressure_events
            assert len(executor.sinks["out"]) == 100
        assert counts["per_item"] == counts["batched"] > 0

    def test_vectorized_operators_match_scalar(self):
        values = [float(i) for i in range(30)]

        def make_builder(vectorized):
            builder = JobBuilder("j")
            source = [Element(v, float(i)) for i, v in enumerate(values)]
            if vectorized:
                (builder.source("s", source)
                        .map(lambda v: v * 3.0 + 1.0, vectorized=True)
                        .filter(lambda v: v > 10.0, vectorized=True)
                        .key_by(lambda v: v % 5.0, vectorized=True)
                        .reduce(np.add, vectorized=True)
                        .sink("out"))
            else:
                (builder.source("s", source)
                        .map(lambda v: v * 3.0 + 1.0)
                        .filter(lambda v: v > 10.0)
                        .key_by(lambda v: v % 5.0)
                        .reduce(lambda a, b: a + b)
                        .sink("out"))
            return builder

        scalar = Executor(make_builder(False).build(),
                          batch_mode=False).run()["out"]
        for mode in MODES.values():
            got = Executor(make_builder(True).build(), **mode).run()["out"]
            assert [float(v) for v in got.values] == \
                   [float(v) for v in scalar.values]
            assert [float(e.key) for e in got.elements] == \
                   [float(e.key) for e in scalar.elements]

    def test_vectorized_reduce_requires_ufunc(self):
        with pytest.raises(StreamError):
            JobBuilder("j").source("s", _els(1)).reduce(
                lambda a, b: a + b, vectorized=True)


class TestSummaryCache:
    def test_cache_invalidated_on_observe(self):
        summary = Summary()
        summary.observe(1.0)
        assert summary.mean == 1.0
        summary.observe(3.0)
        assert summary.mean == 2.0
        assert summary.percentile(100.0) == 3.0

    def test_reset_clears_everything(self):
        summary = Summary()
        for v in (1.0, 2.0, 3.0):
            summary.observe(v)
        summary.reset()
        assert summary.count == 0
        assert np.isnan(summary.mean)
        assert summary.total == 0.0
        summary.observe(7.0)
        assert summary.mean == 7.0
