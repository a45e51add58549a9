"""Flink-like event-time dataflow engine (single-threaded simulation)."""

from .autoscale import (
    Autoscaler,
    AutoscaleReport,
    GradientPolicy,
    OperatorSignals,
    RescaleEvent,
    ScalingDecision,
    ScalingPolicy,
    ScalingSupervisor,
    SchedulePolicy,
    ShedPolicy,
    UtilizationTargetPolicy,
    run_autoscaled,
)
from .barrier import AlignmentResult, BarrierAligner
from .cep import PatternMatch, PatternOperator, PatternStep
from .chain import ChainedOperator
from .connectors import log_sink, log_source, parallel_log_source
from .coordinator import (
    CheckpointCoordinator,
    CheckpointManifest,
    CheckpointStore,
    HeartbeatMonitor,
    failover_region_of,
    failover_regions,
)
from .element import CheckpointBarrier, Element, StreamItem, Watermark
from .errors import (
    DEAD_LETTER,
    DLQ_SINK,
    FAIL,
    RETRY,
    SKIP,
    DeadLetter,
    ErrorPolicy,
    RestartBudget,
)
from .execution import (
    ExecutionGraph,
    ParallelCheckpoint,
    ParallelExecutor,
    PhysicalEdge,
    PhysicalNode,
    compile_execution_graph,
)
from .graph import JobBuilder, JobGraph, SourceSpec
from .join import IntervalJoinOperator, Joined
from .placement import RegionPlacement, placement_from_topology
from .operators import (
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    Operator,
    ReduceOperator,
    TimestampAssigner,
    WatermarkGenerator,
)
from .runtime import Executor, SinkBuffer, build_chains
from .shuffle import (
    DEFAULT_KEY_GROUPS,
    key_group_for,
    key_group_range,
    subtask_for_key,
    subtask_for_key_group,
)
from .state import KeyedState
from .supervisor import Supervisor
from .txn_sink import TransactionalLogSink, TransactionalSink
from .window_operator import (
    LateRecord,
    WindowAggregateOperator,
    WindowResult,
    aggregators,
)
from .windows import (
    SessionWindows,
    SlidingWindows,
    TumblingWindows,
    Window,
    WindowAssigner,
)

__all__ = [
    "OperatorSignals",
    "ScalingDecision",
    "ScalingPolicy",
    "UtilizationTargetPolicy",
    "GradientPolicy",
    "SchedulePolicy",
    "ShedPolicy",
    "Autoscaler",
    "RescaleEvent",
    "AutoscaleReport",
    "ScalingSupervisor",
    "run_autoscaled",
    "PatternMatch",
    "PatternOperator",
    "PatternStep",
    "Element",
    "Watermark",
    "StreamItem",
    "CheckpointBarrier",
    "AlignmentResult",
    "BarrierAligner",
    "CheckpointCoordinator",
    "CheckpointManifest",
    "CheckpointStore",
    "HeartbeatMonitor",
    "failover_regions",
    "failover_region_of",
    "Supervisor",
    "TransactionalSink",
    "TransactionalLogSink",
    "ErrorPolicy",
    "FAIL",
    "SKIP",
    "RETRY",
    "DEAD_LETTER",
    "DLQ_SINK",
    "DeadLetter",
    "RestartBudget",
    "JobBuilder",
    "JobGraph",
    "SourceSpec",
    "Executor",
    "SinkBuffer",
    "build_chains",
    "ExecutionGraph",
    "PhysicalNode",
    "PhysicalEdge",
    "ParallelCheckpoint",
    "ParallelExecutor",
    "compile_execution_graph",
    "RegionPlacement",
    "placement_from_topology",
    "DEFAULT_KEY_GROUPS",
    "key_group_for",
    "key_group_range",
    "subtask_for_key",
    "subtask_for_key_group",
    "Operator",
    "ChainedOperator",
    "MapOperator",
    "FilterOperator",
    "FlatMapOperator",
    "KeyByOperator",
    "ReduceOperator",
    "TimestampAssigner",
    "WatermarkGenerator",
    "WindowAggregateOperator",
    "WindowResult",
    "LateRecord",
    "aggregators",
    "Window",
    "WindowAssigner",
    "TumblingWindows",
    "SlidingWindows",
    "SessionWindows",
    "IntervalJoinOperator",
    "Joined",
    "KeyedState",
    "log_source",
    "parallel_log_source",
    "log_sink",
]
