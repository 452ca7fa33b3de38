"""Plan/compile/execute pipeline for synchronization rounds.

``repro.sched`` holds the topology-agnostic half of every multi-hop
collective: the :class:`~repro.sched.plan.SyncPlan` IR and the two
interpreters that run any plan, one-bit or sum.  The per-topology compilers
live in :mod:`repro.allreduce` and are reached through that package's
topology registry.
"""

from __future__ import annotations

from repro.sched.executor import LaneStackedExecutor, ScalarExecutor
from repro.sched.plan import (
    Barrier,
    MERGE_SIGN,
    CompileContext,
    Gather,
    GridSpec,
    Merge,
    MergeSign,
    Output,
    Pack,
    ReduceOp,
    Restack,
    SendRecv,
    Step,
    SyncPlan,
    Transfer,
    Unstack,
    as_sum_plan,
    plan_segment_lengths,
)

__all__ = [
    "Barrier",
    "CompileContext",
    "Gather",
    "GridSpec",
    "LaneStackedExecutor",
    "MERGE_SIGN",
    "Merge",
    "MergeSign",
    "Output",
    "Pack",
    "ReduceOp",
    "Restack",
    "ScalarExecutor",
    "SendRecv",
    "Step",
    "SyncPlan",
    "Transfer",
    "Unstack",
    "as_sum_plan",
    "executor_names",
    "get_executor",
    "plan_segment_lengths",
]

_EXECUTORS = {
    "scalar": ScalarExecutor(),
    "batched": LaneStackedExecutor(),
}


def executor_names() -> tuple[str, ...]:
    """Registered engine names, for dynamic validation messages."""
    return tuple(sorted(_EXECUTORS))


def get_executor(name: str):
    """Look up an executor by engine name (``"scalar"`` / ``"batched"``)."""
    try:
        return _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"engine must be one of {', '.join(executor_names())}, "
            f"got {name!r}"
        ) from None
