"""Property test: checkpoint/restore is semantically invisible.

For any input stream and any prefix length, running a stateful job to
completion must produce exactly the same sink contents as: run part of
the stream, checkpoint, keep running, crash (restore), and re-run from
the checkpoint.  This is the exactly-once guarantee the streaming
engine claims, checked over randomized streams.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import SITE_OPERATOR, FaultInjector, FaultPlan, FaultSpec
from repro.streaming import Element, Executor, JobBuilder, TumblingWindows
from repro.util.errors import OperatorCrash

stream_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),  # key
              st.floats(min_value=0.0, max_value=100.0,
                        allow_nan=False)),  # timestamp
    min_size=1, max_size=60)


def _build(elements):
    builder = JobBuilder("ckpt")
    (builder.source("s", list(elements))
            .with_watermarks(5.0)
            .key_by(lambda v: v["k"])
            .window(TumblingWindows(10.0), "sum",
                    value_fn=lambda v: v["v"])
            .sink("out"))
    return builder.build()


def _to_elements(rows):
    return [Element(value={"k": k, "v": float(i)}, timestamp=ts)
            for i, (k, ts) in enumerate(rows)]


def _results(sink_values):
    return sorted((r.key, r.window.start, r.value, r.count)
                  for r in sink_values)


class TestCheckpointInvisibility:
    @given(stream_strategy, st.integers(min_value=0, max_value=8),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_restore_replay_equals_straight_run(self, rows, cycles,
                                                batch):
        elements = _to_elements(rows)
        straight = Executor(_build(elements)).run()
        expected = _results(straight["out"].values)

        executor = Executor(_build(elements))
        executor.run(source_batch=batch, max_cycles=cycles)
        try:
            checkpoint = executor.checkpoint()
        except Exception:
            return  # items in flight at this cut: not a checkpointable
        executor.run()  # "crash" after running ahead
        executor.restore(checkpoint)
        replayed = executor.run()
        assert _results(replayed["out"].values) == expected

    @given(stream_strategy)
    @settings(max_examples=30, deadline=None)
    def test_double_restore_still_exact(self, rows):
        elements = _to_elements(rows)
        expected = _results(Executor(_build(elements)).run()["out"].values)
        executor = Executor(_build(elements))
        executor.run(source_batch=7, max_cycles=2)
        checkpoint = executor.checkpoint()
        for _ in range(2):  # crash twice from the same snapshot
            executor.run()
            executor.restore(checkpoint)
        final = executor.run()
        assert _results(final["out"].values) == expected


class TestMidBatchCrashRestore:
    """Regression: a crash landing *inside* a batch — after the prefix
    already mutated operator state, with more batches in flight and
    watermarks pending in the channels — must restore cleanly."""

    def _events(self, n=120):
        # Late-ish timestamps keep watermarks interleaved with data.
        return [Element(value={"k": i % 3, "v": float(i)},
                        timestamp=float(i % 37)) for i in range(n)]

    def _build(self, elements):
        builder = JobBuilder("crash")
        (builder.source("s", list(elements))
                .with_watermarks(5.0, name="wm")
                .map(lambda v: {"k": v["k"], "v": v["v"] + 1.0},
                     name="bump")
                .key_by(lambda v: v["k"], name="keys")
                .window(TumblingWindows(10.0), "sum",
                        value_fn=lambda v: v["v"], name="agg")
                .sink("out"))
        return builder.build()

    def _crash_plan(self, at, target="agg"):
        return FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=at,
                      target=target),))

    @pytest.mark.parametrize("crash_at", [1, 13, 40, 77])
    @pytest.mark.parametrize("target", ["bump", "agg"])
    def test_crash_with_in_flight_batches_restores_exactly(
            self, crash_at, target):
        elements = self._events()
        expected = _results(Executor(self._build(elements))
                            .run()["out"].values)
        executor = Executor(self._build(elements),
                            injector=FaultInjector(
                                self._crash_plan(crash_at, target)))
        checkpoint = executor.checkpoint()  # checkpoint zero
        while True:
            try:
                executor.run(source_batch=16, max_cycles=1)
            except OperatorCrash:
                executor.restore(checkpoint)
                continue
            if executor.done:
                break
            checkpoint = executor.checkpoint()
        assert _results(executor.sinks["out"].values) == expected

    @pytest.mark.parametrize("restore_batch_mode,restore_chaining",
                             [(False, False), (True, False), (True, True)])
    def test_cross_mode_restore_into_fresh_executor(
            self, restore_batch_mode, restore_chaining):
        """A checkpoint from a batched run must be loadable by a fresh
        executor in any mode; the fresh run emits exactly the suffix."""
        def emitted(values):
            return [(r.key, r.window.start, r.value, r.count)
                    for r in values]

        elements = self._events()
        straight = emitted(Executor(self._build(elements))
                           .run(source_batch=16)["out"].values)
        crashed = Executor(self._build(elements),
                           injector=FaultInjector(self._crash_plan(55)))
        crashed.checkpoint()
        checkpoint = None
        try:
            while True:
                crashed.run(source_batch=16, max_cycles=1)
                if crashed.done:
                    pytest.fail("crash never fired")
                checkpoint = crashed.checkpoint()
        except OperatorCrash:
            pass
        assert checkpoint is not None
        already_emitted = len(checkpoint.sink_elements["out"])
        fresh = Executor(self._build(elements),
                         batch_mode=restore_batch_mode,
                         chaining=restore_chaining)
        fresh.restore(checkpoint)
        # The restore installs the checkpoint's sink prefix; the fresh
        # run then emits exactly what the crashed run had not yet
        # delivered — sink emission order is deterministic and
        # mode-independent (the batched-equivalence guarantee), so
        # prefix and suffix match positionally.
        assert emitted(fresh.sinks["out"].values) == \
            straight[:already_emitted]
        suffix = emitted(fresh.run(source_batch=16)["out"].values)
        assert suffix[already_emitted:] == straight[already_emitted:]
