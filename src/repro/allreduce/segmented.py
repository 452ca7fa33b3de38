"""Segmented-ring all-reduce (Jia et al. 2018 — paper ref [25]).

The vector is cut into fixed-size segments that are pipelined through
independent ring all-reduces; small segments keep per-step messages under
the NIC's optimal packet size and overlap reduce/gather of different
segments.  In the synchronous timing model the pipelining shows up as more,
smaller steps; traffic volume matches the plain ring.  The FP sum runs the
compiled plan re-typed under a wire codec
(:func:`repro.allreduce.codec.allreduce_sum`).
"""

from __future__ import annotations

import numpy as np

from repro.allreduce.codec import FloatCodec, allreduce_sum
from repro.allreduce.ring import (
    cycle_gather_steps,
    cycle_reduce_steps,
    require_ring,
)
from repro.comm.cluster import Cluster
from repro.sched.plan import (
    CompileContext,
    GridSpec,
    Output,
    Pack,
    Step,
    SyncPlan,
    plan_segment_lengths,
)

__all__ = ["compile_segmented_ring", "segmented_ring_allreduce"]


def compile_segmented_ring(context: CompileContext) -> SyncPlan:
    """Compile the segmented one-bit ring: one ring pass per pipeline chunk.

    Each fixed-size chunk of the vector gets its own grid, reduce phase, and
    gather phase — the plan equivalent of running independent ring passes
    back to back; traffic volume matches the plain ring.
    """
    chunk = context.segment_elems
    if chunk is None or chunk < 1:
        raise ValueError("segmented ring requires segment_elems >= 1")
    size = context.num_workers
    dimension = context.dimension
    grids: list[GridSpec] = []
    steps: list[Step] = []
    outputs: list[Output] = []
    for start in range(0, dimension, chunk):
        stop = min(start + chunk, dimension)
        name = f"seg{start}"
        grids.append(
            GridSpec(
                name=name, lane_ranks=tuple(range(size)), num_segments=size
            )
        )
        seg_elems = max(plan_segment_lengths(stop - start, size), default=0)
        steps.append(Pack(grid=name, start=start, stop=stop))
        steps += cycle_reduce_steps(name, 1, size, 1, seg_elems, f"m-seg{start}-rs")
        steps += cycle_gather_steps(name, 1, size, f"m-seg{start}-ag")
        outputs.append(Output(grid=name, where="segmented-ring gather"))
    return SyncPlan(
        kind="one_bit",
        topology="ring",
        num_workers=size,
        dimension=dimension,
        grids=tuple(grids),
        steps=tuple(steps),
        outputs=tuple(outputs),
    )


def segmented_ring_allreduce(
    cluster: Cluster,
    vectors: list[np.ndarray],
    segment_elems: int,
) -> list[np.ndarray]:
    """Pipelined FP32 ring all-reduce with a fixed segment size.

    Args:
        cluster: ring-topology cluster.
        vectors: per-worker vectors (equal dimension).
        segment_elems: elements per pipeline segment; each segment runs a
            full ring all-reduce of its slice.

    Returns:
        Per-worker sums.
    """
    if segment_elems < 1:
        raise ValueError("segment_elems must be >= 1")
    require_ring(cluster)
    return allreduce_sum(cluster, vectors, FloatCodec(), segment_elems)
