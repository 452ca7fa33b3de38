"""Tree all-reduce: reduce up to the root, broadcast back down.

Mentioned in the paper (Section 5, "Implementation") as an all-reduce
paradigm Marsit extends to.  Depth-synchronous: all transfers at one tree
level overlap in a single timing step.  :func:`compile_tree` writes the
schedule once; the FP mean and the sign sum run it re-typed under a wire
codec (:func:`repro.allreduce.codec.allreduce_sum`), each upward hop sized
by the sender's subtree: ``2 (M - 1)`` hops per sum.
"""

from __future__ import annotations

from repro.sched.plan import (
    Barrier,
    CompileContext,
    Gather,
    GridSpec,
    Merge,
    MergeSign,
    Output,
    Pack,
    SendRecv,
    Step,
    SyncPlan,
    Transfer,
)

__all__ = ["compile_tree"]


def _levels(num_workers: int, arity: int) -> list[list[int]]:
    """Group ranks by depth in the implicit arity-ary heap layout."""
    depth_of = [0] * num_workers
    for rank in range(1, num_workers):
        depth_of[rank] = depth_of[(rank - 1) // arity] + 1
    max_depth = max(depth_of)
    levels: list[list[int]] = [[] for _ in range(max_depth + 1)]
    for rank, depth in enumerate(depth_of):
        levels[depth].append(rank)
    return levels


def compile_tree(context: CompileContext) -> SyncPlan:
    """Compile the one-bit tree round: weighted merges up, broadcast down.

    Each level's child-into-parent merges are grouped into waves by sibling
    index ``(rank - 1) % arity``: a wave touches each parent at most once,
    and per parent the waves run children in ascending rank order — so both
    executors consume every parent generator's stream in the same order,
    with the same running subtree weights (computed here, at compile time).
    """
    arity, root = context.meta["arity"], context.meta["root"]
    num = context.num_workers
    dimension = context.dimension
    levels = _levels(num, arity)
    weight = [1] * num
    steps: list[Step] = [
        Pack(grid="tree", start=0, stop=dimension),
        Barrier(
            kind="begin",
            span="reduce-scatter",
            tag="m-tree-up",
            compress_elems=dimension,
        ),
    ]
    for level in reversed(levels[1:]):
        transfers = tuple(
            Transfer(src_lane=rank, dst_lane=(rank - 1) // arity, seg=0)
            for rank in level
        )
        waves = []
        for sibling in range(arity):
            wave = []
            for rank in level:
                if (rank - 1) % arity != sibling:
                    continue
                parent = (rank - 1) // arity
                wave.append(
                    Merge(
                        dst_lane=parent,
                        src_lane=rank,
                        seg=0,
                        received_weight=weight[rank],
                        local_weight=weight[parent],
                    )
                )
                weight[parent] += weight[rank]
            if wave:
                waves.append(tuple(wave))
        steps.append(SendRecv(grid="tree", tag="m-tree-up", transfers=transfers))
        steps.append(
            MergeSign(
                grid="tree",
                waves=tuple(waves),
                compress_elems=None,
                rng_elems=dimension,
                bitop_elems=dimension,
            )
        )
    if weight[root] != num:
        raise AssertionError("tree reduce missed workers")
    steps.append(Barrier(kind="end", span="reduce-scatter"))
    steps.append(Barrier(kind="begin", span="all-gather", tag="m-tree-down"))
    for level in levels[1:]:
        steps.append(
            Gather(
                grid="tree",
                tag="m-tree-down",
                transfers=tuple(
                    Transfer(
                        src_lane=(rank - 1) // arity, dst_lane=rank, seg=0
                    )
                    for rank in level
                ),
            )
        )
    steps.append(Barrier(kind="end", span="all-gather"))
    return SyncPlan(
        kind="one_bit",
        topology="tree",
        num_workers=num,
        dimension=dimension,
        grids=(
            GridSpec(name="tree", lane_ranks=tuple(range(num)), num_segments=1),
        ),
        steps=tuple(steps),
        outputs=(Output(grid="tree", where="tree broadcast"),),
    )
