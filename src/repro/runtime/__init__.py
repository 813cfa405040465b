"""Execution engine: checkpointed task execution with fault injection."""

from .executor import (
    ExecutionResult,
    MAX_ROLLBACK_ATTEMPTS,
    TaskExecutor,
    TaskProfile,
    characterize_app,
    characterize_task,
    profile_app,
    profile_task,
    run_task,
)
from .isr import ReadErrorServiceRoutine
from .profile_cache import ProfileCache
from .trace import EventKind, ExecutionTrace, TraceEvent

__all__ = [
    "ExecutionResult",
    "MAX_ROLLBACK_ATTEMPTS",
    "TaskExecutor",
    "TaskProfile",
    "characterize_app",
    "characterize_task",
    "profile_app",
    "profile_task",
    "run_task",
    "ProfileCache",
    "ReadErrorServiceRoutine",
    "EventKind",
    "ExecutionTrace",
    "TraceEvent",
]
