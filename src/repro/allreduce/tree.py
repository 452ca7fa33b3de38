"""Tree all-reduce: reduce up to the root, broadcast back down.

Mentioned in the paper (Section 5, "Implementation") as an all-reduce
paradigm Marsit extends to.  Depth-synchronous: all transfers at one tree
level overlap in a single timing step.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.allreduce.codec import (
    FloatCodec,
    WireCodec,
    mean_of,
    signsum_collective,
)
from repro.comm.cluster import Cluster
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

__all__ = [
    "compile_tree",
    "signsum_tree_allreduce",
    "tree_allreduce",
    "tree_allreduce_mean",
]


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


def tree_allreduce(
    cluster: Cluster,
    vectors: list[np.ndarray],
    reduce_pair: Callable[[Any, Any], Any] | None = None,
    finalize: Callable[[Any], Any] | None = None,
    codec: WireCodec = FloatCodec(np.dtype(np.float64)),
) -> list[np.ndarray]:
    """All-reduce over a tree topology: reduce up, broadcast down.

    Depth-synchronous: every tree level is one step.  ``codec`` sizes each
    upward hop by the sender's subtree size (the running weights
    :func:`compile_tree` merges with); the default puts float64 on the wire.
    ``reduce_pair`` folds two wire payloads (default: the codec's sum);
    ``finalize`` maps the root's total before the broadcast.  Returns the
    per-worker results, all equal.
    """
    meta = cluster.topology.meta
    if cluster.topology.name != "tree" or "arity" not in meta:
        raise ValueError("tree_allreduce requires a tree topology")
    arity, root = meta["arity"], meta["root"]
    num = cluster.num_workers
    if len(vectors) != num:
        raise ValueError(f"expected {num} vectors, got {len(vectors)}")

    partial = [codec.encode(vector, 1) for vector in vectors]
    weight = [1] * num
    levels = _levels(num, arity)

    # Reduce: deepest level first, each level one synchronous step.
    for level in reversed(levels[1:]):
        cluster.begin_step()
        for rank in level:
            cluster.send(rank, (rank - 1) // arity, partial[rank], tag="reduce")
        for rank in level:
            parent = (rank - 1) // arity
            received = cluster.recv(parent, rank, tag="reduce")
            weight[parent] += weight[rank]
            if reduce_pair is None:
                partial[parent] = codec.combine(
                    received, partial[parent], weight[parent]
                )
            else:
                partial[parent] = reduce_pair(partial[parent], received)
        cluster.end_step()

    final = [partial[root]] * num
    if finalize is not None:
        final[root] = finalize(partial[root])

    # Broadcast: shallowest level first.
    for level in levels[1:]:
        cluster.begin_step()
        for rank in level:
            parent = (rank - 1) // arity
            cluster.send(parent, rank, final[parent], tag="bcast")
        for rank in level:
            final[rank] = cluster.recv(rank, (rank - 1) // arity, tag="bcast")
        cluster.end_step()
    return [codec.finish([payload]) for payload in final]


signsum_tree_allreduce = signsum_collective(tree_allreduce)
"""Integer sign sums up the tree, each hop at its subtree's signed width."""


def tree_allreduce_mean(
    cluster: Cluster, vectors: list[np.ndarray]
) -> list[np.ndarray]:
    """Tree all-reduce of the FP32 sum, then the mean (``2 (M - 1)`` hops)."""
    return mean_of(tree_allreduce(cluster, vectors, codec=FloatCodec()))


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
