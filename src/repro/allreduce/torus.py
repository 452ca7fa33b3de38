"""2D-torus all-reduce (TAR, Mikami et al. 2018 — paper ref [6]).

The hierarchical schedule runs four phases on an ``rows x cols`` torus, with
**all rows (resp. columns) advancing in lockstep**:

1. reduce-scatter along every row ring simultaneously (``cols - 1`` steps,
   segments of ``D / cols``),
2. all-reduce of each worker's owned row-chunk along every column ring
   simultaneously (``2 (rows - 1)`` steps on ``D / (rows cols)`` pieces),
3. all-gather along every row ring (``cols - 1`` steps).

Total traffic per worker is the all-reduce-optimal ``2 D (M - 1) / M``
elements — the *same volume* as the flat ring — but only
``2 (rows + cols - 2)`` sequential steps instead of ``2 (M - 1)``, and the
column-phase messages are ``cols`` times smaller.  That step/latency saving
is why every baseline communicates faster under TAR in Figure 5.

:func:`compile_torus` writes the schedule once, from the ring's cycle
phases; the FP and sign-sum collectives run that plan with its reduce hops
re-typed under a wire codec (:func:`repro.allreduce.codec.allreduce_sum`).
"""

from __future__ import annotations

import numpy as np

from repro.allreduce.codec import (
    SIGN_SUM,
    FloatCodec,
    allreduce_sum,
    checked_signs,
    mean_of,
)
from repro.allreduce.ring import (
    cycle_allgather_scalars,
    cycle_gather_steps,
    cycle_reduce_steps,
)
from repro.comm.cluster import Cluster
from repro.sched.plan import (
    CompileContext,
    GridSpec,
    Output,
    Pack,
    Restack,
    Step,
    SyncPlan,
    Unstack,
    plan_segment_lengths,
)

__all__ = [
    "col_cycles",
    "compile_torus",
    "row_cycles",
    "signsum_torus_allreduce",
    "torus_allgather_scalars",
    "torus_allreduce_mean",
    "torus_allreduce_sum",
    "torus_cycles",
]


def compile_torus(context: CompileContext) -> SyncPlan:
    """Compile the one-bit TAR round: row reduce, column all-reduce, gathers.

    Row-phase lanes are ranks in row-major order (the row-cycle flatten);
    the column phase restacks each rank's owned row segment into a second
    grid in column-cycle order, split into ``rows`` pieces.  The column
    merges carry ``base_weight=cols`` because every merged vector already
    represents a whole row (the weighted generalization of Eq. 2).
    """
    rows, cols = context.meta["rows"], context.meta["cols"]
    num = rows * cols
    if num != context.num_workers:
        raise ValueError("torus shape does not match worker count")
    dimension = context.dimension
    row_lens = plan_segment_lengths(dimension, cols) if cols > 1 else [dimension]

    def owned_of(rank: int) -> int:
        return (rank % cols + 1) % cols if cols > 1 else 0

    grids = [
        GridSpec(
            name="torus-rows",
            lane_ranks=tuple(range(num)),
            num_segments=cols if cols > 1 else 1,
        )
    ]
    steps: list[Step] = [Pack(grid="torus-rows", start=0, stop=dimension)]
    if cols > 1:
        steps += cycle_reduce_steps(
            "torus-rows", rows, cols, 1, max(row_lens), "m-row-rs"
        )
    if rows > 1:
        col_ranks = [
            rank for ranks in col_cycles(rows, cols) for rank in ranks
        ]
        grids.append(
            GridSpec(
                name="torus-cols",
                lane_ranks=tuple(col_ranks),
                num_segments=rows,
            )
        )
        steps.append(
            Restack(
                grid="torus-cols",
                src_grid="torus-rows",
                sources=tuple((rank, owned_of(rank)) for rank in col_ranks),
                parts=rows,
            )
        )
        col_seg_elems = max(
            plan_segment_lengths(row_lens[owned_of(0)], rows), default=0
        )
        steps += cycle_reduce_steps(
            "torus-cols", cols, rows, cols, col_seg_elems, "m-col-rs"
        )
        steps += cycle_gather_steps("torus-cols", cols, rows, "m-col-ag")
        steps.append(
            Unstack(
                grid="torus-rows",
                src_grid="torus-cols",
                targets=tuple((rank, owned_of(rank)) for rank in col_ranks),
            )
        )
    if cols > 1:
        steps += cycle_gather_steps("torus-rows", rows, cols, "m-row-ag")
    return SyncPlan(
        kind="one_bit",
        topology="torus",
        num_workers=num,
        dimension=dimension,
        grids=tuple(grids),
        steps=tuple(steps),
        outputs=(Output(grid="torus-rows", where="torus gather"),),
    )


def row_cycles(rows: int, cols: int) -> list[list[int]]:
    """Rank cycles of every row ring, row-major layout."""
    return [[r * cols + c for c in range(cols)] for r in range(rows)]


def col_cycles(rows: int, cols: int) -> list[list[int]]:
    """Rank cycles of every column ring, row-major layout."""
    return [[r * cols + c for r in range(rows)] for c in range(cols)]


def torus_cycles(cluster: Cluster) -> tuple[list[list[int]], list[list[int]]]:
    """Row and column cycles of a torus cluster, validating topology."""
    meta = cluster.topology.meta
    if cluster.topology.name != "torus" or "rows" not in meta:
        raise ValueError("torus_allreduce requires a torus topology")
    rows, cols = meta["rows"], meta["cols"]
    return row_cycles(rows, cols), col_cycles(rows, cols)


def torus_allreduce_sum(
    cluster: Cluster,
    vectors: list[np.ndarray],
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """Hierarchical 2D-torus all-reduce; returns per-worker sums."""
    return allreduce_sum(cluster, vectors, FloatCodec(wire_dtype), "torus")


def torus_allreduce_mean(
    cluster: Cluster,
    vectors: list[np.ndarray],
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """2D-torus all-reduce returning per-worker means."""
    return mean_of(torus_allreduce_sum(cluster, vectors, wire_dtype))


def signsum_torus_allreduce(
    cluster: Cluster,
    sign_vectors: list[np.ndarray],
    charge_compression: bool = True,
) -> list[np.ndarray]:
    """Integer sign-sum all-reduce on a torus, with bit-length expansion.

    The TAR schedule of :func:`torus_allreduce_sum` under the sign-sum codec:
    row rings carry partial sums over ``1..cols`` workers, column rings over
    multiples of ``cols``, each hop charged at the fixed signed width of its
    partial-sum range — Section 3.1's expansion, under TAR.
    """
    return allreduce_sum(
        cluster,
        checked_signs(cluster, sign_vectors, charge_compression),
        SIGN_SUM,
        "torus",
    )


def torus_allgather_scalars(cluster: Cluster, values: list[float]) -> np.ndarray:
    """All-gather one scalar per worker over torus links.

    Row rings circulate scalars (cols - 1 steps), then column rings
    circulate each worker's row collection (rows - 1 steps).
    """
    return cycle_allgather_scalars(cluster, values, torus_cycles(cluster))
