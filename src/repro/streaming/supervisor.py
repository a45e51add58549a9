"""One supervisor for coordinated streaming jobs.

:class:`Supervisor` owns a transactional
:class:`~repro.streaming.execution.ParallelExecutor`, the
:class:`~repro.streaming.coordinator.CheckpointStore`, the simulated
clock and the :class:`~repro.streaming.coordinator.CheckpointCoordinator`,
and is the single place that turns a failure into a recovery action:

=============================================  ==========================
failure                                        action
=============================================  ==========================
``OperatorCrash``, fail-silent (dead) subtask  regional restore when the
                                               failed subtask's region
                                               allows it, else full
``DataFaultError``, ``BrokerDown``             full restore
``CoordinatorDown``                            rebuild the coordinator
=============================================  ==========================

Every failure is counted on the report, bounded by :data:`MAX_FAILURES`,
charged to the optional restart budget and published as a ``fault``
span event / ``chaos.faults`` counter.  Every restore retries through
broker outages and accounts its replay.

Plan changes — rescale, zone handoff, region failover — are one move,
:meth:`Supervisor.transform`: savepoint, build a replacement executor,
restore into it, adopt it.  The front-ends (``run_coordinated``,
:class:`~repro.streaming.autoscale.ScalingSupervisor`,
:class:`~repro.geo.GeoDeployment`) only decide *when* to step and *what*
to transform into.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from ..util.clock import SimClock
from ..util.errors import (
    BrokerDown,
    ChaosError,
    CheckpointError,
    CoordinatorDown,
    DataFaultError,
    OperatorCrash,
)
from .coordinator import (
    CheckpointCoordinator,
    CheckpointStore,
    failover_region_of,
)
from .errors import DLQ_SINK
from .execution import ParallelCheckpoint, ParallelExecutor

__all__ = ["CoordinatedReport", "Supervisor", "FAILURES", "MAX_FAILURES"]

#: failures past this count abort the run: a finite fault plan cannot
#: re-fire a passed fault, so only a pathological plan gets here
MAX_FAILURES = 1000

#: the exceptions a supervisor recovers from
FAILURES = (OperatorCrash, DataFaultError, CoordinatorDown, BrokerDown)

#: failure kind -> the report counter it increments
_COUNTERS = {
    "crash": "crashes",
    "data": "data_failures",
    "coordinator": "coordinator_crashes",
    "broker": "broker_faults",
    "dead": "dead_detected",
}


@dataclass
class CoordinatedReport:
    """What happened during a coordinator-supervised run."""

    sink_values: dict[str, list[Any]]
    crashes: int = 0
    coordinator_crashes: int = 0
    broker_faults: int = 0
    #: escalated data faults the supervisor restarted from
    data_failures: int = 0
    dead_detected: int = 0
    checkpoints: int = 0
    aborted: int = 0
    regional_restores: int = 0
    full_restores: int = 0
    #: checkpoints the store quarantined for failing integrity checks
    integrity_failures: int = 0
    #: elements actually replayed across all recoveries and transforms
    replayed_total: int = 0
    #: of which, by regional restores only
    replayed_regional: int = 0
    #: what whole-job restarts would have replayed at the same recovery
    #: points (the counterfactual the MTTR gate compares against)
    replayed_full_equiv: int = 0
    trace: list = field(default_factory=list)

    @property
    def failures(self) -> int:
        return (self.crashes + self.coordinator_crashes
                + self.broker_faults + self.data_failures
                + self.dead_detected)

    @property
    def restores(self) -> int:
        return self.regional_restores + self.full_restores


class Supervisor:
    """Steps a coordinated job and recovers it from every failure.

    ``executor`` must be built with ``transactional_sinks=True``.
    ``report`` (default: a fresh :class:`CoordinatedReport`) receives
    the counters; front-ends pass a subclass carrying their own fields.
    ``replayable`` names edges whose downstream re-reads a durable log
    (see :func:`~repro.streaming.coordinator.failover_regions`).
    ``restart_budget`` (a :class:`~repro.streaming.errors.RestartBudget`)
    is charged on every failure, with backoff on this supervisor's
    clock; "progress" means a checkpoint finalized since the previous
    failure.
    """

    def __init__(self, executor: ParallelExecutor,
                 report: CoordinatedReport | None = None, *,
                 store: CheckpointStore | None = None,
                 clock: SimClock | None = None,
                 injector: Any = None,
                 source_batch: int = 64, step_cycles: int = 1,
                 interval_cycles: int = 4,
                 heartbeat_timeout_s: float = 5.0,
                 replayable: frozenset | set = frozenset(),
                 metrics: Any = None,
                 restart_budget: Any = None) -> None:
        self.executor = executor
        self.report = (report if report is not None
                       else CoordinatedReport(sink_values={}))
        self.store = store if store is not None else CheckpointStore()
        self.clock = clock if clock is not None else SimClock()
        self.injector = injector
        self.source_batch = source_batch
        self.step_cycles = step_cycles
        self.interval_cycles = interval_cycles
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.replayable = replayable
        self.metrics = metrics
        self.restart_budget = restart_budget
        if restart_budget is not None:
            restart_budget.bind_clock(self.clock)
        # the ``fault`` event target while run() traces
        self._span: Any = None
        #: failure kind handled by the latest :meth:`step`, or None
        self.fault: str | None = None
        self.coordinator = self._build_coordinator()
        #: restore target before any checkpoint finalized
        self.initial = executor.checkpoint()
        # counts of retired coordinator incarnations
        self._finalized = 0
        self._aborted = 0
        self._progress_mark = 0
        # first checkpoint id the current executor cut itself: older
        # checkpoints belong to a replaced plan, and a regional restore
        # is a restart, never a re-plan
        self._plan_since = 0

    def _build_coordinator(self) -> CheckpointCoordinator:
        return CheckpointCoordinator(
            self.executor, store=self.store, clock=self.clock,
            interval_cycles=self.interval_cycles,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            injector=self.injector, metrics=self.metrics)

    # -- the step loop -------------------------------------------------------

    def step(self) -> bool:
        """Run ``step_cycles`` macro cycles and recover from whatever
        failed.  Returns False once the job finished and its final
        checkpoint committed; :attr:`fault` tells the caller whether
        this step recovered instead of making progress."""
        self.fault = None
        try:
            self.executor.run(source_batch=self.source_batch,
                              max_cycles=self.step_cycles)
            if self.executor.done:
                self.coordinator.final_checkpoint(self.executor)
                return False
        except FAILURES as exc:
            self.handle(exc)
            return True
        dead = self.coordinator.dead_subtasks()
        if dead:
            self.record_failure("dead", OperatorCrash(
                f"fail-silent subtask {dead[0]!r}", op_name=dead[0]))
            self._recover(dead[0])
        return True

    def run(self, tracer: Any = None,
            span_name: str = "supervised") -> CoordinatedReport:
        """Step to completion and return the finished report.  With a
        ``tracer`` the run nests under one span that carries a ``fault``
        event per failure."""
        if tracer is not None:
            self._span = tracer.start_span(span_name)
        with (tracer.activate(self._span) if tracer is not None
              else nullcontext()):
            while self.step():
                pass
        if self._span is not None:
            for attr in ("crashes", "coordinator_crashes",
                         "regional_restores", "full_restores",
                         "replayed_total"):
                self._span.set_attr(attr, getattr(self.report, attr))
            self._span.end()
        return self.finish()

    def finish(self) -> CoordinatedReport:
        """Fill the report's end-of-run totals and return it."""
        report = self.report
        report.checkpoints = self._finalized + self.coordinator.finalized
        report.aborted = self._aborted + self.coordinator.aborted
        report.integrity_failures = getattr(self.store,
                                            "integrity_failures", 0)
        report.sink_values = {name: list(sink.values)
                              for name, sink in self.executor.sinks.items()}
        if self.injector is not None:
            report.trace = list(self.injector.trace)
        return report

    # -- failure -> action ---------------------------------------------------

    def handle(self, exc: Exception) -> None:
        """Apply the recovery action for one caught :data:`FAILURES`."""
        if isinstance(exc, CoordinatorDown):
            # subtask state is intact: no executor restore at all
            self.record_failure("coordinator", exc)
            self._rebuild_coordinator()
        elif isinstance(exc, OperatorCrash):
            self.record_failure("crash", exc)
            self._recover(exc.op_name)
        else:
            # an escalated data fault replays the same poisoned record
            # after restore, so a persistent one loops here until the
            # restart budget's flapping detection makes it terminal
            self.record_failure(
                "data" if isinstance(exc, DataFaultError) else "broker",
                exc)
            self._recover(None)

    def record_failure(self, kind: str, exc: Exception) -> None:
        """Count one failure of ``kind`` (``"crash"``, ``"data"``,
        ``"coordinator"``, ``"broker"`` or ``"dead"``), enforce
        :data:`MAX_FAILURES` and charge the restart budget."""
        self.fault = kind
        report = self.report
        counter = _COUNTERS[kind]
        setattr(report, counter, getattr(report, counter) + 1)
        if self._span is not None:
            self._span.add_event("fault", kind=kind)
        if self.metrics is not None:
            self.metrics.counter("chaos.faults", kind=kind).inc()
        if report.failures > MAX_FAILURES:
            raise ChaosError(
                f"gave up after {report.failures} failures; the fault "
                "plan appears to re-fire indefinitely")
        if self.restart_budget is not None:
            finalized = self._finalized + self.coordinator.finalized
            made = finalized > self._progress_mark
            self._progress_mark = finalized
            self.restart_budget.on_failure(exc, made_progress=made)

    def _rebuild_coordinator(self) -> None:
        """Replace the coordinator incarnation: abandon its in-progress
        checkpoint, carry its listeners over, and keep its counts.  Ids
        stay monotonic because they come from the shared store."""
        old = self.coordinator
        old.abandon_pending()
        self._finalized += old.finalized
        self._aborted += old.aborted
        self.coordinator = self._build_coordinator()
        self.coordinator.listeners.extend(old.listeners)

    def _restore(self, restore: Callable[[], dict[str, int]]
                 ) -> dict[str, int]:
        # Restoring a log-backed source re-reads the log, so the restore
        # itself can land in an unavailability window; the fault
        # counters only move forward, so retrying walks out of it.
        while True:
            try:
                return restore()
            except BrokerDown as exc:
                self.record_failure("broker", exc)

    def _full_equiv(self, checkpoint: ParallelCheckpoint) -> int:
        """What a whole-job restart to ``checkpoint`` would replay."""
        total = 0
        for source, splits in \
                self.executor.source_positions_snapshot().items():
            recorded = checkpoint.source_positions.get(source, {})
            for split, pos in splits.items():
                total += max(0, pos - recorded.get(split, 0))
        return total

    def _region(self, checkpoint: ParallelCheckpoint | None,
                op_name: str | None) -> set[str] | None:
        """The failover region a crash of ``op_name`` may restore alone,
        or None for a full restore."""
        executor = self.executor
        if (checkpoint is None or op_name is None
                or checkpoint.checkpoint_id < self._plan_since):
            return None
        # Data-fault counters outside the region cannot rewind, and the
        # DLQ's committed projection spans every dead-letter feeder, so
        # partial rewinds would break exactly-once accounting there.
        if DLQ_SINK in executor.sinks \
                or getattr(self.injector, "has_data_faults", False):
            return None
        graph = executor.graph
        try:
            region = failover_region_of(graph, op_name, self.replayable)
        except CheckpointError:
            return None
        # The region must contain its own sources (its input replays
        # from them) and be a strict subset — a region spanning the
        # whole plan is a full restore with extra bookkeeping.
        total_nodes = (len(graph.nodes) + len(graph.source_parallelism)
                       + len(executor.job.sinks))
        if len(region) < total_nodes \
                and region & set(graph.source_parallelism):
            return region
        return None

    def _recover(self, op_name: str | None) -> None:
        """Restore from the newest finalized checkpoint (or the initial
        snapshot): regionally around ``op_name`` when allowed."""
        executor = self.executor
        checkpoint = self.store.latest()
        target = checkpoint if checkpoint is not None else self.initial
        full_equiv = self._full_equiv(target)
        region = self._region(checkpoint, op_name)
        report = self.report
        if region is not None:
            replayed = self._restore(
                lambda: executor.restore_region(target, region)
            )["replayed_elements"]
            report.regional_restores += 1
            report.replayed_regional += replayed
        else:
            self._restore(lambda: executor.restore(target))
            replayed = full_equiv
            report.full_restores += 1
            self.coordinator.monitor.reset_all()
        report.replayed_total += replayed
        report.replayed_full_equiv += full_equiv
        if self.metrics is not None:
            self.metrics.summary("recovery.replayed_elements").observe(
                replayed)
            self.metrics.summary("recovery.replay_saved").observe(
                full_equiv - replayed)

    # -- plan transforms -----------------------------------------------------

    def transform(self, build: Callable[[], ParallelExecutor],
                  phase: Callable[[str], None] | None = None
                  ) -> tuple[ParallelCheckpoint, int]:
        """Savepoint -> build a replacement -> restore -> adopt.

        ``build`` returns the new physical plan (other widths, placement
        or cluster) of the same logical job.  ``phase`` is called on
        entry to ``"savepoint"``, ``"recompile"`` and ``"restore"`` (the
        rescale chaos sites).  A failure anywhere leaves the old
        executor supervised; the caller hands it to :meth:`handle`.
        Returns the savepoint and the elements the replacement replays.
        """
        enter = phase if phase is not None else (lambda _name: None)
        enter("savepoint")
        savepoint = self.coordinator.savepoint()
        enter("recompile")
        replacement = build()
        enter("restore")
        return savepoint, self.adopt(replacement, savepoint)

    def adopt(self, replacement: ParallelExecutor,
              checkpoint: ParallelCheckpoint | None) -> int:
        """Restore ``checkpoint`` (None: start cold) into
        ``replacement`` and supervise it from now on.  The old
        coordinator's listeners and counts carry over.  Returns the
        elements the restore will replay (0 when cold)."""
        replayed = 0
        if checkpoint is not None:
            replayed = self._restore(
                lambda: replacement.restore(checkpoint)
            )["replayed_elements"]
        self.executor = replacement
        self._rebuild_coordinator()
        self._plan_since = self.store.next_checkpoint_id()
        self.report.replayed_total += replayed
        return replayed
