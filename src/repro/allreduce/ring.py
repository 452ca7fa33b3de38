"""Ring all-reduce: the classical reduce-scatter + all-gather schedule.

The schedule is the Baidu/Horovod one (paper refs [4, 5]): with ``M`` workers
the vector is split into ``M`` segments; ``M - 1`` reduce steps each move one
segment per worker to its ring successor and fold it into the local copy, so
every worker ends owning one fully reduced segment; ``M - 1`` gather steps
then circulate the owned segments until everyone holds the full result.
Total traffic per worker: ``2 (M - 1) D / M`` elements — the
``2 (M - 1) x D`` weights of Section 3.1 summed over the ring.

:func:`compile_ring` writes the schedule once, as Marsit's one-bit
:class:`~repro.sched.plan.SyncPlan`, from the cycle phases the 2D torus
shares (a ring is the one-row torus).  The FP sum, the integer sign sum
and cascading compression run the same plan with its reduce hops re-typed
under a wire codec (:func:`repro.allreduce.codec.allreduce_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.comm.bits import PackedBits, PackedBitsBatch
from repro.comm.cluster import Cluster, SizedPayload
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
    "PackedLaneGrid",
    "SizedPayload",
    "compile_ring",
    "cycle_allgather_scalars",
    "cycle_gather_steps",
    "cycle_reduce_steps",
    "require_ring",
    "ring_allgather_scalars",
    "split_segments",
]

_WORD_DTYPE = np.dtype("<u8")
_WORD_BITS = 64

def split_segments(
    vector: np.ndarray, num_segments: int, copy: bool = True
) -> list[np.ndarray]:
    """Split a 1-D vector into ``num_segments`` nearly equal segments.

    ``np.array_split`` semantics: the first ``len % num_segments`` segments
    get one extra element, and segments may be empty when
    ``len < num_segments`` (still correct, just zero-byte hops).

    ``copy=False`` returns views into ``vector`` — for callers that
    immediately repack or cast every segment (``PackedBits.from_signs``,
    wire-dtype ``astype``) the defensive copy is pure overhead.
    """
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ValueError("split_segments expects a 1-D vector")
    parts = np.array_split(vector, num_segments)
    if not copy:
        return parts
    return [segment.copy() for segment in parts]


@dataclass
class PackedLaneGrid:
    """Mutable ``(lanes, segments, width)`` stack of packed bit segments.

    The lane-stacked engine's working set: lane ``l`` is one (cycle,
    position) pair of a lockstep ring schedule, and ``words[l, s]`` holds
    segment ``s`` of that lane's vector in
    :class:`~repro.comm.bits.PackedBits` word layout (zero-padded to the
    shared ``width``).  A synchronous step then gathers
    one ``(lanes, width)`` plane with a single fancy index, merges it with
    one batched expression, and scatters it back — no per-worker Python.

    ``lengths[l, s]`` is the logical bit count of each segment; padding words
    past a segment's data are zero, so any row prefix is a valid
    :class:`~repro.comm.bits.PackedBits` and :meth:`row` can return a
    zero-copy view.
    """

    words: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        self.words = np.ascontiguousarray(self.words, dtype=_WORD_DTYPE)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.words.ndim != 3:
            raise ValueError("PackedLaneGrid words must be 3-D")
        if self.lengths.shape != self.words.shape[:2]:
            raise ValueError("lengths must be (lanes, segments)")

    @property
    def num_lanes(self) -> int:
        return self.words.shape[0]

    @property
    def num_segments(self) -> int:
        return self.words.shape[1]

    @property
    def width(self) -> int:
        return self.words.shape[2]

    @staticmethod
    def segment_spans(dimension: int, num_segments: int) -> list[tuple[int, int]]:
        """``(column offset, length)`` of each segment of ``dimension`` columns.

        The :func:`split_segments` (``np.array_split``) cut: the first
        ``dimension % num_segments`` segments get one extra column.
        """
        spans = []
        offset = 0
        for length in plan_segment_lengths(dimension, num_segments):
            spans.append((offset, length))
            offset += length
        return spans

    @classmethod
    def zeros(
        cls, lanes: int, dimension: int, num_segments: int
    ) -> "PackedLaneGrid":
        """An all-zero grid laid out for a ``(lanes, dimension)`` matrix.

        Segments follow :meth:`segment_spans`, and ``width`` holds the
        longest.  :meth:`from_sign_matrix` fills this layout, and so may any
        packer that writes segment words directly.
        """
        if num_segments < 1:
            raise ValueError("num_segments must be >= 1")
        seg_lengths = np.array(
            plan_segment_lengths(dimension, num_segments), dtype=np.int64
        )
        width = (int(seg_lengths.max()) + _WORD_BITS - 1) // _WORD_BITS
        return cls(
            words=np.zeros((lanes, num_segments, width), dtype=_WORD_DTYPE),
            lengths=np.broadcast_to(seg_lengths, (lanes, num_segments)).copy(),
        )

    @classmethod
    def from_sign_matrix(
        cls, matrix: np.ndarray, num_segments: int
    ) -> "PackedLaneGrid":
        """Pack a ``(lanes, D)`` sign matrix, split like :func:`split_segments`.

        One vectorized pack per segment (all lanes at once) into the
        :meth:`zeros` layout, so the grid lines up bit-for-bit with the
        scalar path's per-worker segment lists.  The reference packer: the
        synchronizer's compensation pass writes the same words block by
        block, and tests hold it to this one.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("from_sign_matrix expects a 2-D matrix")
        lanes, dim = matrix.shape
        grid = cls.zeros(lanes, dim, num_segments)
        for seg, (start, seg_len) in enumerate(
            cls.segment_spans(dim, num_segments)
        ):
            if seg_len:
                batch = PackedBitsBatch.from_sign_matrix(
                    matrix[:, start : start + seg_len]
                )
                grid.words[:, seg, : batch.width] = batch.words
        return grid

    @classmethod
    def from_packed_rows(
        cls, rows: Sequence[Sequence[PackedBits]]
    ) -> "PackedLaneGrid":
        """Stack per-lane :class:`PackedBits` segment lists into one grid."""
        lanes = len(rows)
        if not lanes:
            raise ValueError("at least one lane required")
        segs = len(rows[0])
        if any(len(row) != segs for row in rows):
            raise ValueError("every lane must hold the same segment count")
        lengths = np.array(
            [[part.length for part in row] for row in rows], dtype=np.int64
        )
        width = (
            int(lengths.max()) + _WORD_BITS - 1
        ) // _WORD_BITS if lengths.size else 0
        words = np.zeros((lanes, segs, width), dtype=_WORD_DTYPE)
        for lane, row in enumerate(rows):
            for seg, part in enumerate(row):
                if not isinstance(part, PackedBits):
                    raise TypeError(f"expected PackedBits, got {type(part)!r}")
                words[lane, seg, : part.words.size] = part.words
        return cls(words=words, lengths=lengths)

    def row(self, lane: int, seg: int) -> PackedBits:
        """Segment ``(lane, seg)`` as a zero-copy :class:`PackedBits` view."""
        length = int(self.lengths[lane, seg])
        num_words = (length + _WORD_BITS - 1) // _WORD_BITS
        return PackedBits(words=self.words[lane, seg, :num_words], length=length)

    def segments_of(self, lane: int) -> list[PackedBits]:
        """All of one lane's segments, in order, as zero-copy views."""
        return [self.row(lane, seg) for seg in range(self.num_segments)]

    def set_row(self, lane: int, seg: int, packed: PackedBits) -> None:
        """Replace segment ``(lane, seg)``, re-zeroing the padding words."""
        if packed.words.size > self.width:
            raise ValueError(
                f"segment of {packed.length} bits exceeds grid width"
            )
        self.words[lane, seg, : packed.words.size] = packed.words
        self.words[lane, seg, packed.words.size :] = 0
        self.lengths[lane, seg] = packed.length


def cycle_reduce_steps(
    grid: str,
    num_cycles: int,
    size: int,
    base_weight: int,
    segment_elems: int,
    tag: str,
) -> list[Step]:
    """Compile the reduce-scatter phase of disjoint lockstep ring cycles.

    ``size - 1`` fused SendRecv/MergeSign hops, each a single wave in
    cycle-major lane order (lane ``c * size + p``), preceded by the phase
    barrier that pre-charges the first segment's sign pack.  Every cycle
    advances one hop per synchronous step, so transfers on different rings
    overlap (every row of a torus reduce-scatters at once).  Position ``p``
    merges segment ``(p - 1 - step) % size`` from its ring predecessor with
    weights ``(step + 1) * base_weight : base_weight``, and ends owning
    segment ``(p + 1) % size`` fully reduced.
    """
    steps: list[Step] = [
        Barrier(
            kind="begin",
            span="reduce-scatter",
            tag=tag,
            compress_elems=segment_elems,
        )
    ]
    for step_idx in range(size - 1):
        transfers = []
        merges = []
        for cycle in range(num_cycles):
            base = cycle * size
            for pos in range(size):
                seg = (pos - 1 - step_idx) % size
                transfers.append(
                    Transfer(
                        src_lane=base + (pos - 1) % size,
                        dst_lane=base + pos,
                        seg=seg,
                    )
                )
                merges.append(
                    Merge(
                        dst_lane=base + pos,
                        src_lane=base + (pos - 1) % size,
                        seg=seg,
                        received_weight=(step_idx + 1) * base_weight,
                        local_weight=base_weight,
                    )
                )
        steps.append(
            SendRecv(grid=grid, tag=f"{tag}:{step_idx}", transfers=tuple(transfers))
        )
        steps.append(
            MergeSign(
                grid=grid,
                waves=(tuple(merges),),
                compress_elems=segment_elems,
                rng_elems=segment_elems,
                bitop_elems=segment_elems,
            )
        )
    steps.append(Barrier(kind="end", span="reduce-scatter"))
    return steps


def cycle_gather_steps(
    grid: str, num_cycles: int, size: int, tag: str
) -> list[Step]:
    """Compile the all-gather phase of disjoint lockstep ring cycles.

    Walks :func:`cycle_reduce_steps`'s ownership layout: at step ``s``
    position ``p`` receives segment ``(p - s) % size`` from its predecessor.
    """
    steps: list[Step] = [Barrier(kind="begin", span="all-gather", tag=tag)]
    for step_idx in range(size - 1):
        transfers = []
        for cycle in range(num_cycles):
            base = cycle * size
            for pos in range(size):
                transfers.append(
                    Transfer(
                        src_lane=base + (pos - 1) % size,
                        dst_lane=base + pos,
                        seg=(pos - step_idx) % size,
                    )
                )
        steps.append(
            Gather(grid=grid, tag=f"{tag}:{step_idx}", transfers=tuple(transfers))
        )
    steps.append(Barrier(kind="end", span="all-gather"))
    return steps


def compile_ring(context: CompileContext) -> SyncPlan:
    """Compile the one-bit RAR round (Figure 2's R and G periods).

    With ``segment_elems`` set, delegates to the segmented-ring compiler
    (paper ref [25]) — one independent ring pass per fixed-size chunk.
    """
    if context.segment_elems is not None:
        from repro.allreduce.segmented import compile_segmented_ring

        return compile_segmented_ring(context)
    size = context.num_workers
    dimension = context.dimension
    seg_elems = max(plan_segment_lengths(dimension, size), default=0)
    steps: list[Step] = [Pack(grid="ring", start=0, stop=dimension)]
    steps += cycle_reduce_steps("ring", 1, size, 1, seg_elems, "m-rs")
    steps += cycle_gather_steps("ring", 1, size, "m-ag")
    return SyncPlan(
        kind="one_bit",
        topology="ring",
        num_workers=size,
        dimension=dimension,
        grids=(
            GridSpec(
                name="ring", lane_ranks=tuple(range(size)), num_segments=size
            ),
        ),
        steps=tuple(steps),
        outputs=(Output(grid="ring", where="gather phase"),),
    )


def cycle_allgather_scalars(
    cluster: Cluster,
    values: Sequence[float],
    phases: Sequence[Sequence[Sequence[int]]],
) -> np.ndarray:
    """All-gather one float per worker by circulating along rank cycles.

    Each phase walks disjoint, equal-length cycles in lockstep; per step a
    worker forwards what one cycle peer held when the phase began.  A ring
    is one phase, a torus its rows then its columns.
    """
    num = cluster.num_workers
    if len(values) != num:
        raise ValueError(f"expected {num} scalars, got {len(values)}")
    known = [{rank: float(values[rank])} for rank in range(num)]
    for cycles in phases:
        held = [tuple(entries) for entries in known]
        size = len(cycles[0])
        for step in range(size - 1):
            cluster.begin_step()
            for cycle in cycles:
                for pos, rank in enumerate(cycle):
                    origin = cycle[(pos - step) % size]
                    cluster.send(
                        rank,
                        cycle[(pos + 1) % size],
                        {key: known[rank][key] for key in held[origin]},
                        tag="scal",
                    )
            for cycle in cycles:
                for pos, rank in enumerate(cycle):
                    known[rank].update(
                        cluster.recv(rank, cycle[(pos - 1) % size], tag="scal")
                    )
            cluster.end_step()
    return np.array([known[0][rank] for rank in range(num)])


def require_ring(cluster: Cluster) -> None:
    """Raise unless ``cluster`` runs a ring (the ring-only collectives)."""
    if cluster.topology.name != "ring":
        raise ValueError(
            "the ring all-reduce requires a ring topology, "
            f"got {cluster.topology.name!r}"
        )


def ring_allgather_scalars(cluster: Cluster, values: list[float]) -> np.ndarray:
    """All-gather one scalar per worker around the ring (``M - 1`` steps)."""
    return cycle_allgather_scalars(
        cluster, values, [[list(range(cluster.num_workers))]]
    )
