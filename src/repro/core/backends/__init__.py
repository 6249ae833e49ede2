"""Execution backends: virtual-time (DES) and real execution."""

from .simbackend import (
    PipelineConfig,
    ScheduleResult,
    SimJob,
    TimelineEvent,
    simulate_pipeline,
    simulate_scp,
)
from .threadbackend import (
    ExecutionStats,
    execute_pipelined,
    execute_scp,
)

__all__ = [
    "ExecutionStats",
    "PipelineConfig",
    "ScheduleResult",
    "SimJob",
    "TimelineEvent",
    "execute_pipelined",
    "execute_scp",
    "simulate_pipeline",
    "simulate_scp",
]
