"""One supervisor behind every coordinated front-end.

``run_coordinated`` and the autoscaler recover through the same
:class:`~repro.streaming.supervisor.Supervisor`, so the same failure
gets the same action and the same accounting from either of them.
"""

from repro.chaos import (
    SITE_OPERATOR,
    SITE_STALL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
    run_coordinated,
)
from repro.streaming import SchedulePolicy, ScalingSupervisor, run_autoscaled

SOURCE_BATCH = 32


def _build():
    return reference_job(reference_events(seed=5, n=300, keys=4), splits=4)


def _golden():
    return canonical_sinks(fault_free_sinks(
        _build, parallelism=1, source_batch=SOURCE_BATCH))


def _crash_plan():
    return FaultPlan(specs=(
        FaultSpec("operator_crash", SITE_OPERATOR, at=40,
                  target="window_sum"),
    ), name="one-crash")


class TestSharedRecovery:
    def test_crash_recovers_the_same_through_both_front_ends(self):
        golden = _golden()
        reports = [
            run_coordinated(_build(), FaultInjector(_crash_plan()),
                            source_batch=SOURCE_BATCH),
            run_autoscaled(_build(), SchedulePolicy({}),
                           FaultInjector(_crash_plan()),
                           source_batch=SOURCE_BATCH),
        ]
        for report in reports:
            assert canonical_sinks(report.sink_values) == golden
            assert report.crashes == 1
            assert report.replayed_total > 0

    def test_fail_silent_subtask_counts_as_dead_under_autoscale(self):
        plan = FaultPlan(specs=(
            FaultSpec("subtask_stall", SITE_STALL, at=4, count=12,
                      target="window_sum"),
        ), name="stall")
        report = ScalingSupervisor(
            _build(), SchedulePolicy({}), injector=FaultInjector(plan),
            source_batch=SOURCE_BATCH, heartbeat_timeout_s=5.0).run()
        assert report.dead_detected >= 1
        assert canonical_sinks(report.sink_values) == _golden()
