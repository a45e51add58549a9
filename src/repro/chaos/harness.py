"""Crash-consistent recovery harness for streaming jobs under chaos.

The harness runs a job the way a supervised production deployment
would: make progress, take an aligned checkpoint whenever quiescent,
and on a crash restore the last checkpoint and replay.  Sources rewind
by position (the event log replays by offset), so the recovery
invariant the whole chaos suite enforces is:

    for any seeded fault schedule, the sinks after recovery are
    **bit-identical** to the fault-free run.

``run_with_recovery`` is that supervisor loop; ``reference_job`` builds
the canonical pipeline (watermarks -> map -> filter -> key_by -> window
sum) used by the equivalence suites, and ``reference_events`` its
seeded input — shared here so tests, the robustness gate and benchmarks
all agree on what "the reference pipeline" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..streaming.element import Element
from ..streaming.execution import ParallelExecutor
from ..streaming.graph import JobBuilder, JobGraph
from ..streaming.supervisor import MAX_FAILURES, CoordinatedReport, Supervisor
from ..streaming.windows import TumblingWindows
from ..util.errors import BrokerDown, ChaosError, DataFaultError, OperatorCrash
from ..util.rng import make_rng
from .injector import FaultInjector
from .plan import FaultPlan

__all__ = ["RecoveryReport", "run_with_recovery", "reference_events",
           "reference_job", "reference_operator_names", "fault_free_sinks",
           "CoordinatedReport", "run_coordinated", "two_region_job",
           "canonical_sinks"]


@dataclass
class RecoveryReport:
    """What happened during a supervised run.

    ``trace`` is the injector's fault trace.  The executor runs operator
    clones at every width, so operator-site entries name the clone that
    crashed (``window_sum[0]``), never the bare logical operator.
    """

    sink_values: dict[str, list[Any]]
    crashes: int = 0
    broker_faults: int = 0
    #: escalated data faults (FAIL/RETRY policy exhausted) the
    #: supervisor restarted from — the flapping-detection feedstock
    data_failures: int = 0
    checkpoints: int = 0
    restores: int = 0
    trace: list = field(default_factory=list)

    @property
    def failures(self) -> int:
        return self.crashes + self.broker_faults + self.data_failures


def run_with_recovery(job: JobGraph, injector: FaultInjector | None = None,
                      *, batch_mode: bool = True, chaining: bool = True,
                      parallelism: int | dict[str, int] = 1,
                      source_batch: int = 64, tracer: Any = None,
                      metrics: Any = None, profiler: Any = None,
                      restart_budget: Any = None) -> RecoveryReport:
    """Run ``job`` to completion, checkpointing and restoring on faults.

    The job steps one drain cycle at a time with an aligned checkpoint
    after each, so a restore replays at most one cycle of input.  Each
    checkpoint copies the sink contents so far (a restore reinstalls
    them), which makes per-cycle checkpoints cost O(output) apiece.

    Catches :class:`OperatorCrash` (injected or organic operator death)
    and :class:`BrokerDown` (log-backed source hitting an unavailable
    partition; the retry advances the fault window) and restores the
    latest checkpoint.  :data:`~repro.streaming.supervisor.MAX_FAILURES`
    bounds pathological plans — the deterministic schedule cannot
    re-fire a passed fault, so any finite plan terminates well below it.

    ``parallelism`` is the width of the supervised
    :class:`~repro.streaming.execution.ParallelExecutor` (1 by
    default).  Crash sites are per subtask at every width: target
    ``"window_sum[1]"`` to kill one clone, ``"window_sum"`` to match
    any of them.

    ``tracer``/``metrics``/``profiler`` (duck-typed, see
    :mod:`repro.obs`) thread straight through to the executor; the
    harness adds a ``supervised`` span around the whole run with one
    event per crash/broker fault, so a chaos trace shows recovery
    structure, and reuses the profiler's registry for ``chaos.*``
    counters.

    ``restart_budget`` (a :class:`~repro.streaming.errors.RestartBudget`)
    is consulted before every restore: it accounts the attempt, sleeps a
    seeded backoff, and raises
    :class:`~repro.util.errors.RestartsExhausted` once the budget is
    spent or the job is flapping (repeated restarts with no new
    checkpoint) — the supervisor then terminates instead of masking a
    permanently poisoned job.
    """
    executor = ParallelExecutor(job, parallelism, batch_mode=batch_mode,
                                chaining=chaining, injector=injector,
                                tracer=tracer, metrics=metrics,
                                profiler=profiler)
    report = RecoveryReport(sink_values={})
    supervised = (tracer.start_span(f"supervised:{job.name}")
                  if tracer is not None else None)

    def _check_budget() -> None:
        if report.failures > MAX_FAILURES:
            raise ChaosError(
                f"gave up after {report.failures} failures; the fault "
                "plan appears to re-fire indefinitely")

    def _fault(kind: str) -> None:
        if supervised is not None:
            supervised.add_event("fault", kind=kind)
        if metrics is not None:
            metrics.counter("chaos.faults", kind=kind).inc()

    progress_mark = {"checkpoints": 0}

    def _account(exc: Exception) -> None:
        """Consume one restart attempt; raises RestartsExhausted when
        the budget is spent or the job is flapping."""
        if restart_budget is None:
            return
        made = report.checkpoints > progress_mark["checkpoints"]
        progress_mark["checkpoints"] = report.checkpoints
        restart_budget.on_failure(exc, made_progress=made)

    def _restore(checkpoint: Any) -> None:
        # Restoring a log-backed source re-reads the log, so the restore
        # itself can land in an unavailability window; the counters only
        # move forward, so retrying walks out of any finite window.
        while True:
            try:
                executor.restore(checkpoint)
            except BrokerDown as exc:
                report.broker_faults += 1
                _fault("broker")
                _check_budget()
                _account(exc)
                continue
            report.restores += 1
            return

    def _supervise() -> None:
        # Checkpoint zero: the initial state is always a valid restore
        # point, so a crash before the first aligned snapshot restarts
        # from scratch.
        last: Any = executor.checkpoint()
        report.checkpoints += 1
        while True:
            try:
                executor.run(source_batch=source_batch, max_cycles=1)
            except OperatorCrash as exc:
                report.crashes += 1
                _fault("crash")
                _check_budget()
                _account(exc)
                _restore(last)
                continue
            except DataFaultError as exc:
                # An injected data fault escalated through a FAIL or
                # exhausted RETRY policy: the task died on a poisoned
                # record.  Restoring rewinds the data-fault counters, so
                # replay re-poisons the *same* record — a persistent
                # fault loops here until the restart budget's flapping
                # detection (no new checkpoint between failures) makes
                # it terminal.
                report.data_failures += 1
                _fault("data")
                _check_budget()
                _account(exc)
                _restore(last)
                continue
            except BrokerDown as exc:
                report.broker_faults += 1
                _fault("broker")
                _check_budget()
                _account(exc)
                # The source fetch hit a fault window; restoring resets
                # in-flight state, then the retry re-reads the log.
                _restore(last)
                continue
            if executor.done:
                break
            last = executor.checkpoint()
            report.checkpoints += 1

    if supervised is not None:
        with tracer.activate(supervised):
            _supervise()
        supervised.set_attr("crashes", report.crashes)
        supervised.set_attr("broker_faults", report.broker_faults)
        supervised.set_attr("checkpoints", report.checkpoints)
        supervised.set_attr("restores", report.restores)
        supervised.end()
    else:
        _supervise()
    report.sink_values = {name: list(buf.values)
                          for name, buf in executor.sinks.items()}
    if injector is not None:
        report.trace = list(injector.trace)
    return report


# -- coordinated checkpoints -------------------------------------------------


def run_coordinated(job: JobGraph, injector: FaultInjector | None = None,
                    *, parallelism: int | dict[str, int] = 2,
                    batch_mode: bool = True, chaining: bool = True,
                    source_batch: int = 64, step_cycles: int = 1,
                    interval_cycles: int = 4,
                    unaligned_after: int | None = None,
                    heartbeat_timeout_s: float = 5.0,
                    replayable: frozenset | set = frozenset(),
                    store: Any = None,
                    tracer: Any = None, metrics: Any = None,
                    profiler: Any = None, on_coordinator: Any = None,
                    restart_budget: Any = None) -> CoordinatedReport:
    """Supervise a parallel job under coordinated checkpoints.

    Unlike :func:`run_with_recovery` — which only checkpoints when the
    job is quiescent — this runs a
    :class:`~repro.streaming.supervisor.Supervisor`, whose
    :class:`~repro.streaming.coordinator.CheckpointCoordinator`
    snapshots *while data is in flight* via barrier alignment, commits
    sink output through 2PC, and recovers regionally:

    - :class:`OperatorCrash` (mid-batch, per-item, or mid-snapshot via
      ``barrier_crash``) restores only the failed subtask's failover
      region when the plan decomposes; otherwise the whole job.
    - :class:`CoordinatorDown` abandons the in-progress checkpoint and
      rebuilds the coordinator from the store — subtask state is intact,
      so no executor restore happens at all.
    - A fail-silent subtask (``subtask_stall``) is caught by the
      heartbeat detector and treated as a crash of that subtask.

    ``on_coordinator`` (if given) is called with the coordinator after
    construction — the place to register commit listeners such as
    :class:`~repro.streaming.txn_sink.TransactionalLogSink`.  Listeners
    survive coordinator rebuilds.

    ``restart_budget`` bounds recovery exactly as in
    :func:`run_with_recovery` (backoff runs on this supervisor's
    simulated clock; "progress" means a newly finalized checkpoint).

    When the plan carries data faults, or the job dead-letters into the
    transactional DLQ, recovery always restores the *whole* job.
    """
    executor = ParallelExecutor(job, parallelism, batch_mode=batch_mode,
                                chaining=chaining, injector=injector,
                                tracer=tracer, metrics=metrics,
                                profiler=profiler,
                                transactional_sinks=True,
                                unaligned_after=unaligned_after)
    supervisor = Supervisor(
        executor, store=store, injector=injector,
        source_batch=source_batch, step_cycles=step_cycles,
        interval_cycles=interval_cycles,
        heartbeat_timeout_s=heartbeat_timeout_s, replayable=replayable,
        metrics=metrics, restart_budget=restart_budget)
    if on_coordinator is not None:
        on_coordinator(supervisor.coordinator)
    return supervisor.run(tracer, f"coordinated:{job.name}")


# -- the reference pipeline -------------------------------------------------


def reference_events(seed: int = 0, n: int = 400,
                     keys: int = 4) -> list[Element]:
    """Seeded out-of-order keyed events for the reference pipeline."""
    rng = make_rng((int(seed), 0xE7E27))
    events = []
    for i in range(n):
        ts = float(i) * 0.25 + float(rng.uniform(-1.5, 1.5))
        events.append(Element(
            value={"k": int(rng.integers(0, keys)),
                   "v": float(rng.uniform(0.0, 10.0))},
            timestamp=max(0.0, ts)))
    return events


def reference_job(elements_or_source: Any,
                  max_lateness: float = 5.0,
                  window_s: float = 10.0,
                  splits: int | None = None) -> JobGraph:
    """watermarks -> map -> filter -> key_by -> window(sum) -> sink.

    The linear head is chainable, the window is a shuffle point, so one
    graph exercises per-item, batched and chained execution paths.
    ``splits`` pins the source's split count independently of source
    parallelism — required for rescaling tests, where a checkpoint can
    only restore into a plan with the same splits.
    """
    builder = JobBuilder("chaos-reference")
    (builder.source("events", elements_or_source, splits=splits)
            .with_watermarks(max_lateness, name="watermarks")
            .map(lambda v: {"k": v["k"], "v": v["v"] * 2.0}, name="double")
            .filter(lambda v: v["v"] >= 1.0, name="drop_tiny")
            .key_by(lambda v: v["k"], name="by_key")
            .window(TumblingWindows(window_s), "sum",
                    value_fn=lambda v: v["v"], name="window_sum")
            .sink("out"))
    return builder.build()


def reference_operator_names() -> tuple[str, ...]:
    """Crash targets in the reference job (kept in sync by tests)."""
    return ("watermarks", "double", "drop_tiny", "by_key", "window_sum")


def canonical_sinks(sink_values: dict[str, list[Any]]
                    ) -> dict[str, list[Any]]:
    """Order-insensitive canonical form of sink output.

    Crash recovery replays deterministically, so crash-only schedules
    reproduce the fault-free sink lists *exactly*.  Network faults
    (channel delay/partition) and fail-silent stalls legitimately shift
    *when* windows fire, which permutes the cross-subtask interleaving
    at a merge sink — content is still exactly-once (no loss, no
    duplicates, bit-identical values), only the arrival order differs,
    as on any real multi-partition sink.  Equivalence suites compare
    ``canonical_sinks(a) == canonical_sinks(b)``: it is exact on values
    and multiplicities while forgiving the interleaving.
    """
    return {name: sorted(values, key=repr)
            for name, values in sink_values.items()}


def two_region_job(events_a: Any, events_b: Any,
                   max_lateness: float = 5.0,
                   window_s: float = 10.0) -> JobGraph:
    """Two disjoint pipelines in one job: the canonical two-region plan.

    The pipelines share no edges, so :func:`failover_regions` splits
    them into independent restart units without any replayable-edge
    declaration — a crash in pipeline A replays only ``events_a`` while
    pipeline B keeps its state and position.  The recovery-MTTR gate
    asserts exactly that: regional replay strictly below what a
    whole-job restart would re-read.
    """
    builder = JobBuilder("two-region")
    (builder.source("events_a", events_a)
            .with_watermarks(max_lateness, name="wm_a")
            .map(lambda v: {"k": v["k"], "v": v["v"] * 2.0}, name="double_a")
            .key_by(lambda v: v["k"], name="by_key_a")
            .window(TumblingWindows(window_s), "sum",
                    value_fn=lambda v: v["v"], name="window_a")
            .sink("out_a"))
    (builder.source("events_b", events_b)
            .with_watermarks(max_lateness, name="wm_b")
            .map(lambda v: {"k": v["k"], "v": v["v"] + 1.0}, name="shift_b")
            .key_by(lambda v: v["k"], name="by_key_b")
            .window(TumblingWindows(window_s), "sum",
                    value_fn=lambda v: v["v"], name="window_b")
            .sink("out_b"))
    return builder.build()


def fault_free_sinks(build: Callable[[], JobGraph], *,
                     batch_mode: bool = True,
                     chaining: bool = True,
                     parallelism: int | dict[str, int] = 1,
                     source_batch: int = 64) -> dict[str, list[Any]]:
    """The golden run: same job, no injector, straight execution."""
    executor = ParallelExecutor(build(), parallelism, batch_mode=batch_mode,
                                chaining=chaining)
    sinks = executor.run(source_batch=source_batch)
    return {name: list(buf.values) for name, buf in sinks.items()}
