"""Property tests: columnar batch execution ≡ the per-item oracle.

The columnar ``RecordBatch`` representation (see "Columnar batch
representation" in docs/ARCHITECTURE.md) promises to be an *encoding*,
not a semantic: for any job and any input stream, batch execution
(batched or chained) produces bit-identical sink contents and
checkpoint state to element-at-a-time dispatch (``batch_mode=False``).
These tests drive randomized streams through vectorized kernels,
through the mixed/opaque-value fallback, through parallel plans with
hash shuffles and the columnar source merge (whose lexsort fast path
is checked against the per-item run's heap merge), and through rescale
restores, comparing exactly every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import (
    Element,
    Executor,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
)

import numpy as np

MODES = {
    "per_item": dict(batch_mode=False, chaining=False),
    "batched": dict(batch_mode=True, chaining=False),
    "chained": dict(batch_mode=True, chaining=True),
}
#: Parallel comparisons run the batch plan unchained: per-item plans
#: never chain, and a chained plan's routing-state node names differ,
#: so whole checkpoints only compare equal between unchained plans.
PARALLEL_MODES = {
    "per_item": dict(batch_mode=False),
    "columnar": dict(batch_mode=True, chaining=False),
}
PARALLELISMS = (1, 2, 4)
N_SPLITS = 4

numeric_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),          # key
              st.floats(min_value=-50.0, max_value=50.0,      # value
                        allow_nan=False)),
    min_size=1, max_size=70)

# Mixed payloads: floats ride the float64 column, ints/strings force
# the opaque-list path batch by batch — including batches where the
# two kinds interleave, which must disable the numeric column entirely.
mixed_value = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abc", min_size=0, max_size=3))
mixed_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), mixed_value),
    min_size=1, max_size=70)


def _run_all_modes(make_job, source_batch):
    out = {}
    for mode, flags in MODES.items():
        executor = Executor(make_job(), **flags)
        executor.run(source_batch=source_batch)
        out[mode] = executor
    return out


def _assert_identical(executors):
    """Same sinks, same operator state, same source positions — exactly."""
    base = executors["per_item"]
    base_ckpt = base.checkpoint()
    for mode, other in executors.items():
        if mode == "per_item":
            continue
        for name, sink in base.sinks.items():
            assert other.sinks[name].elements == sink.elements, (mode, name)
        ckpt = other.checkpoint()
        assert ckpt.source_positions == base_ckpt.source_positions, mode
        assert ckpt.operator_state == base_ckpt.operator_state, mode
        assert ckpt.emitted_to_sinks == base_ckpt.emitted_to_sinks, mode


class TestColumnarKernels:
    @given(numeric_rows,
           st.integers(min_value=1, max_value=9),     # watermark cadence
           st.integers(min_value=1, max_value=48))    # source batch
    @settings(max_examples=30, deadline=None)
    def test_vectorized_pipeline(self, rows, emit_every, source_batch):
        # The full kernel chain: vectorized map/filter/keyBy, watermark
        # generator, and the grouped-reduction window sum.
        elements = [Element(value=float(v), timestamp=i * 0.7)
                    for i, (_, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("columnar-vec")
            (builder.source("s", elements)
                    .map(lambda v: v * 1.5 + 1.0, vectorized=True)
                    .filter(lambda v: v > -60.0, vectorized=True)
                    .key_by(lambda v: np.floor(v) % 4, vectorized=True)
                    .with_watermarks(3.0, emit_every=emit_every)
                    .window(TumblingWindows(10.0), "sum")
                    .sink("out"))
            return builder.build()
        _assert_identical(_run_all_modes(make_job, source_batch))

    @given(mixed_rows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_mixed_opaque_values_force_fallback(self, rows, source_batch):
        # Non-float payloads must ride the opaque path and fall back to
        # per-item kernels without changing a single sink element.
        elements = [Element(value=v, timestamp=i * 0.7, key=k)
                    for i, (k, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("columnar-opaque")
            (builder.source("s", elements)
                    .map(lambda v: (v, v))
                    .filter(lambda v: v[0] == v[1])
                    .with_watermarks(3.0, emit_every=4)
                    .window(TumblingWindows(10.0), "count",
                            value_fn=lambda v: v[0])
                    .sink("out"))
            return builder.build()
        _assert_identical(_run_all_modes(make_job, source_batch))

    @given(numeric_rows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_keyed_reduce_kernel(self, rows, source_batch):
        elements = [Element(value=float(v), timestamp=i * 0.7, key=k)
                    for i, (k, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("columnar-reduce")
            (builder.source("s", elements)
                    .reduce(lambda a, b: a + b)
                    .sink("out"))
            return builder.build()
        _assert_identical(_run_all_modes(make_job, source_batch))


class TestParallelColumnar:
    def _make_job(self, rows):
        # Keyed elements with per-split-monotone timestamps: the
        # columnar source merge takes its lexsort fast path while the
        # per-item run heap-merges — outputs must still match exactly.
        elements = [Element(value=float(v), timestamp=i * 0.7, key=k)
                    for i, (k, v) in enumerate(rows)]
        builder = JobBuilder("columnar-parallel")
        (builder.source("s", elements, splits=N_SPLITS)
                .with_watermarks(5.0, emit_every=4)
                .map(lambda v: v * 1.5, name="scale")
                .window(TumblingWindows(10.0), "sum", name="win")
                .sink("out"))
        return builder.build()

    @given(numeric_rows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=15, deadline=None)
    def test_parallel_columnar_matches_plain(self, rows, source_batch):
        for p in PARALLELISMS:
            runs = {}
            for mode, flags in PARALLEL_MODES.items():
                executor = ParallelExecutor(self._make_job(rows), p, **flags)
                executor.run(source_batch=source_batch)
                runs[mode] = executor
            plain, col = runs["per_item"], runs["columnar"]
            assert (col.sinks["out"].elements
                    == plain.sinks["out"].elements), p
            # Keyed state is snapshotted per key group; the whole
            # checkpoint (a dataclass) must compare equal field-wise.
            assert col.checkpoint() == plain.checkpoint(), p

    @given(numeric_rows)
    @settings(max_examples=10, deadline=None)
    def test_rescale_restore_columnar(self, rows):
        expected = Executor(self._make_job(rows)).run()["out"].elements
        for old_p, new_p in ((1, 2), (1, 4), (2, 4), (4, 1)):
            donor = ParallelExecutor(self._make_job(rows), old_p)
            donor.run(source_batch=8, max_cycles=2)
            snapshot = donor.checkpoint()
            survivor = ParallelExecutor(self._make_job(rows), new_p)
            survivor.restore(snapshot)
            survivor.run(source_batch=8)
            got = sorted(repr(e) for e in survivor.sinks["out"].elements)
            want = sorted(repr(e) for e in expected)
            assert got == want, (
                f"columnar rescale {old_p}->{new_p} diverged")

    @given(mixed_rows)
    @settings(max_examples=10, deadline=None)
    def test_parallel_mixed_values_fallback(self, rows):
        # Opaque payloads through a parallel hash shuffle: batches must
        # fall back to per-element routing without changing delivery.
        elements = [Element(value=v, timestamp=i * 0.7, key=k)
                    for i, (k, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("columnar-parallel-opaque")
            (builder.source("s", elements, splits=N_SPLITS)
                    .with_watermarks(5.0, emit_every=4)
                    .window(TumblingWindows(10.0), "count", name="win")
                    .sink("out"))
            return builder.build()

        for p in PARALLELISMS:
            runs = {}
            for mode, flags in PARALLEL_MODES.items():
                executor = ParallelExecutor(make_job(), p, **flags)
                executor.run(source_batch=16)
                runs[mode] = executor
            assert (runs["columnar"].sinks["out"].elements
                    == runs["per_item"].sinks["out"].elements), p
            assert (runs["columnar"].checkpoint()
                    == runs["per_item"].checkpoint()), p
