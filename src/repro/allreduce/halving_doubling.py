"""Recursive halving-doubling all-reduce (Thakur et al.'s butterfly schedule).

The proof that the SyncPlan abstraction pays: a complete new one-bit
topology in one compiler function, with **zero executor changes**.

With ``M = 2^k`` workers the vector is split into ``M`` segments.  The
*halving* (reduce-scatter) phase runs ``k`` steps: at step ``s`` every rank
exchanges with its partner across hypercube bit ``k - s - 1``, keeping the
half of its current segment block that matches its own bit and merging the
partner's copies of those kept segments (``2^s`` workers folded on each
side, so the Marsit merge weights are ``2^s : 2^s``).  After ``k`` steps
rank ``r`` owns segment ``r``, fully reduced.  The *doubling* (all-gather)
phase mirrors the recursion back up: step ``t`` exchanges owned blocks with
the partner across bit ``t``, doubling each rank's holdings until everyone
has everything.  ``2k`` steps total versus the ring's ``2(M - 1)``, at the
same optimal ``2 D (M - 1) / M`` traffic volume.  A step moves one message
per link: all the segments a rank sends its partner travel together.

The FP and sign-sum collectives run the compiled plan with its reduce hops
re-typed under a wire codec (:func:`repro.allreduce.codec.allreduce_sum`):
halving step ``s`` carries sums over ``2^(s+1)`` workers.
"""

from __future__ import annotations

import numpy as np

from repro.allreduce.codec import (
    FloatCodec,
    allreduce_sum,
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
    plan_segment_lengths,
)

__all__ = [
    "compile_halving_doubling",
    "halving_doubling_allreduce_mean",
    "halving_doubling_allreduce_sum",
    "signsum_halving_doubling_allreduce",
]


def _order_of(context_meta, num_workers: int) -> int:
    order = context_meta.get("order")
    if order is None or num_workers != 1 << order:
        raise ValueError(
            "halving-doubling requires a power-of-two halving_doubling "
            f"topology, got {num_workers} workers"
        )
    return order


def compile_halving_doubling(context: CompileContext) -> SyncPlan:
    """Compile the one-bit halving-doubling round (~the whole topology)."""
    num = context.num_workers
    order = _order_of(context.meta, num)
    dimension = context.dimension
    seg_lens = plan_segment_lengths(dimension, num)
    steps: list[Step] = [
        Pack(grid="hd", start=0, stop=dimension),
        Barrier(
            kind="begin",
            span="reduce-scatter",
            tag="m-hd-rs",
            compress_elems=dimension,
        ),
    ]
    # Halving: each rank's block shrinks to the half matching its own bit.
    blocks = [list(range(num)) for _ in range(num)]
    for step_idx in range(order):
        bit = 1 << (order - step_idx - 1)
        kept = [
            [i for i in blocks[rank] if (i & bit) == (rank & bit)]
            for rank in range(num)
        ]
        transfers = tuple(
            Transfer(src_lane=rank ^ bit, dst_lane=rank, seg=seg)
            for rank in range(num)
            for seg in kept[rank]
        )
        waves = tuple(
            tuple(
                Merge(
                    dst_lane=rank,
                    src_lane=rank ^ bit,
                    seg=kept[rank][wave],
                    received_weight=1 << step_idx,
                    local_weight=1 << step_idx,
                )
                for rank in range(num)
            )
            for wave in range(len(kept[0]))
        )
        hop_elems = sum(seg_lens[i] for i in kept[0])
        steps.append(
            SendRecv(grid="hd", tag=f"m-hd-rs:{step_idx}", transfers=transfers)
        )
        steps.append(
            MergeSign(
                grid="hd",
                waves=waves,
                compress_elems=None,
                rng_elems=hop_elems,
                bitop_elems=hop_elems,
            )
        )
        blocks = kept
    steps.append(Barrier(kind="end", span="reduce-scatter"))
    # Doubling: owned blocks double back up until everyone holds everything.
    steps.append(Barrier(kind="begin", span="all-gather", tag="m-hd-ag"))
    owned = [[rank] for rank in range(num)]
    for step_idx in range(order):
        bit = 1 << step_idx
        steps.append(
            Gather(
                grid="hd",
                tag=f"m-hd-ag:{step_idx}",
                transfers=tuple(
                    Transfer(src_lane=rank ^ bit, dst_lane=rank, seg=seg)
                    for rank in range(num)
                    for seg in owned[rank ^ bit]
                ),
            )
        )
        owned = [sorted(owned[rank] + owned[rank ^ bit]) for rank in range(num)]
    steps.append(Barrier(kind="end", span="all-gather"))
    return SyncPlan(
        kind="one_bit",
        topology="halving_doubling",
        num_workers=num,
        dimension=dimension,
        grids=(
            GridSpec(name="hd", lane_ranks=tuple(range(num)), num_segments=num),
        ),
        steps=tuple(steps),
        outputs=(Output(grid="hd", where="halving-doubling gather"),),
    )


def halving_doubling_allreduce_sum(
    cluster: Cluster,
    vectors: list[np.ndarray],
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """Full-precision halving-doubling all-reduce; returns per-worker sums."""
    return allreduce_sum(
        cluster, vectors, FloatCodec(wire_dtype), "halving_doubling"
    )


def halving_doubling_allreduce_mean(
    cluster: Cluster,
    vectors: list[np.ndarray],
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """Halving-doubling all-reduce returning per-worker means."""
    return mean_of(halving_doubling_allreduce_sum(cluster, vectors, wire_dtype))


signsum_halving_doubling_allreduce = signsum_collective("halving_doubling")
"""Integer sign sums: halving step ``s`` carries sums over ``2^(s+1)`` workers."""
