"""Unit tests: job graph validation, executor, checkpoints, connectors."""

import pytest

from repro.eventlog import LogCluster, Producer, TopicConfig
from repro.streaming import (
    Element,
    Executor,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
    log_sink,
    log_source,
)
from repro.util.errors import BrokerDown, CheckpointError, JobGraphError


def _els(n, key_mod=2):
    return [Element(value={"k": i % key_mod, "v": float(i)},
                    timestamp=float(i)) for i in range(n)]


class TestJobGraph:
    def test_simple_chain_builds(self):
        builder = JobBuilder("j")
        builder.source("s", _els(3)).map(lambda v: v).sink("out")
        job = builder.build()
        assert job.topological_operators() == ["map_0"]

    def test_no_source_rejected(self):
        builder = JobBuilder("j")
        with pytest.raises(JobGraphError):
            builder.build()

    def test_duplicate_source_rejected(self):
        builder = JobBuilder("j")
        builder.source("s", _els(1))
        with pytest.raises(JobGraphError):
            builder.source("s", _els(1))

    def test_duplicate_operator_name_rejected(self):
        builder = JobBuilder("j")
        handle = builder.source("s", _els(1))
        handle.map(lambda v: v, name="m")
        with pytest.raises(JobGraphError):
            builder.source("s2", _els(1)).map(lambda v: v, name="m")

    def test_join_requires_both_sides(self):
        builder = JobBuilder("j")
        left = builder.source("l", _els(1)).key_by(lambda v: v["k"])
        right = builder.source("r", _els(1)).key_by(lambda v: v["k"])
        left.join(right, -1.0, 1.0).sink("out")
        job = builder.build()  # valid wiring builds fine
        assert "join_0" in job.operators

    def test_auto_names_increment(self):
        builder = JobBuilder("j")
        handle = builder.source("s", _els(1))
        handle = handle.map(lambda v: v).map(lambda v: v)
        handle.sink("out")
        job = builder.build()
        assert set(job.operators) == {"map_0", "map_1"}


class TestExecutor:
    def test_map_filter_pipeline(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(10))
                .map(lambda v: v["v"])
                .filter(lambda v: v >= 5.0)
                .sink("out"))
        sinks = Executor(builder.build()).run()
        assert sinks["out"].values == [5.0, 6.0, 7.0, 8.0, 9.0]

    def test_windowed_wordcount_like(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(20))
                .with_watermarks(0.0)
                .key_by(lambda v: v["k"])
                .window(TumblingWindows(10.0), "count")
                .sink("out"))
        sinks = Executor(builder.build()).run()
        results = {(r.key, r.window.start): r.value
                   for r in sinks["out"].values}
        assert results[(0, 0.0)] == 5
        assert results[(1, 0.0)] == 5
        assert results[(0, 10.0)] == 5

    def test_flush_fires_last_window(self):
        # Without flush the [10, 20) window would need a watermark past 20.
        builder = JobBuilder("j")
        (builder.source("s", _els(15))
                .with_watermarks(0.0)
                .key_by(lambda v: 0)
                .window(TumblingWindows(10.0), "count")
                .sink("out"))
        sinks = Executor(builder.build()).run()
        assert sum(r.value for r in sinks["out"].values) == 15

    def test_two_source_join(self):
        left_els = [Element(value={"k": "a", "side": "l", "i": i},
                            timestamp=float(i)) for i in range(5)]
        right_els = [Element(value={"k": "a", "side": "r", "i": i},
                             timestamp=float(i) + 0.5) for i in range(5)]
        builder = JobBuilder("j")
        left = builder.source("l", left_els).key_by(lambda v: v["k"])
        right = builder.source("r", right_els).key_by(lambda v: v["k"])
        (left.join(right, lower=0.0, upper=1.0,
                   project=lambda l, r: (l["i"], r["i"]))
             .sink("out"))
        sinks = Executor(builder.build()).run()
        # left i matches right i (+0.5) and right i-1 (-0.5 -> outside).
        assert sorted(sinks["out"].values) == [(i, i) for i in range(5)]

    def test_callable_source_reusable(self):
        builder = JobBuilder("j")
        builder.source("s", lambda: iter(_els(3))).sink("out")
        job = builder.build()
        assert len(Executor(job).run()["out"]) == 3
        assert len(Executor(job).run()["out"]) == 3  # re-runnable

    def test_drop_on_overflow_counts(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(100))
                .map(lambda v: v)
                .sink("out"))
        executor = Executor(builder.build(), channel_capacity=10,
                            drop_on_overflow=True)
        executor.run(source_batch=100)
        assert executor.dropped_overflow > 0
        assert len(executor.sinks["out"]) < 100

    def test_backpressure_counter(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(100))
                .map(lambda v: v)
                .sink("out"))
        executor = Executor(builder.build(), channel_capacity=10)
        executor.run(source_batch=100)
        assert executor.backpressure_events > 0
        assert len(executor.sinks["out"]) == 100  # nothing lost


class TestCheckpoint:
    def _job(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(20))
                .key_by(lambda v: v["k"])
                .reduce(lambda a, b: {"k": a["k"], "v": a["v"] + b["v"]})
                .sink("out"))
        return builder.build()

    def test_checkpoint_restore_replays_exactly(self):
        job = self._job()
        executor = Executor(job)
        full = [v["v"] for v in executor.run()["out"].values]
        # Fresh executor: run half, checkpoint, run rest, restore, re-run.
        job2_builder = JobBuilder("j2")
        (job2_builder.source("s", _els(20))
                     .key_by(lambda v: v["k"])
                     .reduce(lambda a, b: {"k": a["k"], "v": a["v"] + b["v"]})
                     .sink("out"))
        executor2 = Executor(job2_builder.build())
        executor2.run(source_batch=5, max_cycles=2)
        checkpoint = executor2.checkpoint()
        executor2.run()
        executor2.restore(checkpoint)
        replayed = [v["v"] for v in executor2.run()["out"].values]
        assert replayed == full

    def test_checkpoint_before_first_pull_reads_no_source(self):
        # Checkpoint zero must not touch the source: its log may be
        # down, and positions 0 are known without reading it.
        down = {"left": 1}

        def flaky():
            if down["left"]:
                down["left"] -= 1
                raise BrokerDown("log unavailable")
            return iter(_els(20))

        builder = JobBuilder("j")
        builder.source("s", flaky, splits=2).map(lambda v: v).sink("out")
        executor = Executor(builder.build())
        checkpoint = executor.checkpoint()
        assert checkpoint.source_positions == {"s": {0: 0, 1: 0}}
        with pytest.raises(BrokerDown):
            executor.run()
        executor.restore(checkpoint)
        assert len(executor.run()["out"]) == 20

    def test_checkpoint_with_inflight_rejected(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(50))
                .map(lambda v: v)
                .map(lambda v: v)
                .sink("out"))
        executor = Executor(builder.build())
        # Manually stuff a channel to simulate in-flight data (the two
        # maps fuse under chaining, so grab whatever channel exists).
        senders = next(iter(executor._channels.values()))
        next(iter(senders.values())).append(Element(value=1, timestamp=0.0))
        with pytest.raises(CheckpointError):
            executor.checkpoint()


class TestLogConnectors:
    def test_log_source_reads_topic(self):
        cluster = LogCluster(1)
        cluster.create_topic(TopicConfig("in", partitions=2, replication=1))
        producer = Producer(cluster)
        for i in range(10):
            producer.send("in", {"i": i}, key=f"k{i % 3}",
                          timestamp=float(i))
        builder = JobBuilder("j")
        builder.source("in", log_source(cluster, "in")).sink("out")
        sinks = Executor(builder.build()).run()
        assert len(sinks["out"]) == 10
        assert {e.key for e in sinks["out"].elements} == {"k0", "k1", "k2"}

    @pytest.mark.parametrize("time_ordered", [True, False])
    @pytest.mark.parametrize("make_executor", [
        Executor,
        lambda job: ParallelExecutor(job, 1),
        lambda job: ParallelExecutor(job, 2),
    ], ids=["executor", "parallel_p1", "parallel_p2"])
    def test_columnar_log_source_matches_elements(self, make_executor,
                                                  time_ordered):
        # A connector that hands the engine pre-encoded RecordBatches
        # must be invisible: same sinks, same checkpoints, mid-run and
        # at the end, as the same topic read as loose Elements.
        cluster = LogCluster(1)
        cluster.create_topic(TopicConfig("in", partitions=3, replication=1))
        producer = Producer(cluster)
        for i in range(300):
            producer.send("in", float(i % 17) - 4.0, key=f"d{i % 5}",
                          timestamp=i * 0.4)

        def run(columnar):
            builder = JobBuilder("j")
            (builder.source("in", log_source(cluster, "in",
                                             time_ordered=time_ordered,
                                             columnar=columnar))
                    .map(lambda v: v * 2.0, vectorized=True)
                    .filter(lambda v: v > -6.0, vectorized=True)
                    .with_watermarks(5.0, emit_every=8)
                    .window(TumblingWindows(10.0), "sum", name="win")
                    .sink("out"))
            executor = make_executor(builder.build())
            executor.run(source_batch=32, max_cycles=3)
            mid = executor.checkpoint()
            sinks = executor.run(source_batch=32)
            return mid, sinks["out"].elements, executor.checkpoint()

        mid, out, end = run(columnar=True)
        want_mid, want_out, want_end = run(columnar=False)
        assert out and out == want_out
        assert mid == want_mid
        assert end == want_end

    def test_log_sink_writes_topic(self):
        cluster = LogCluster(1)
        cluster.create_topic(TopicConfig("out", partitions=1,
                                         replication=1))
        write = log_sink(cluster, "out")
        write(Element(value={"a": 1}, timestamp=1.0, key="k"))
        write(Element(value={"a": 2}, timestamp=2.0, key=7))
        assert cluster.end_offset("out", 0) == 2
