"""Ring all-reduce: the classical reduce-scatter + all-gather schedule.

The schedule is the Baidu/Horovod one (paper refs [4, 5]): with ``M`` workers
the vector is split into ``M`` segments; ``M - 1`` reduce steps each move one
segment per worker to its ring successor and fold it into the local copy, so
every worker ends owning one fully reduced segment; ``M - 1`` gather steps
then circulate the owned segments until everyone holds the full result.
Total traffic per worker: ``2 (M - 1) D / M`` elements — the
``2 (M - 1) x D`` weights of Section 3.1 summed over the ring.

Sums run through :func:`cycle_allreduce`, the kernel shared with the 2D
torus (a ring is the one-row torus) under a wire codec
(:mod:`repro.allreduce.codec`).  Cascading compression plugs a per-hop
``combine`` into the same walk; Marsit's one-bit round compiles it into a
:class:`~repro.sched.plan.SyncPlan` (:func:`compile_ring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.allreduce.codec import (
    FloatCodec,
    SignSumCodec,
    WireCodec,
    checked_signs,
    mean_of,
)
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
    "cycle_allreduce",
    "cycle_gather_steps",
    "cycle_reduce_steps",
    "lockstep_ring_all_gather",
    "lockstep_ring_reduce_scatter",
    "parallel_ring_all_gather",
    "parallel_ring_reduce_scatter",
    "ring_allgather_scalars",
    "ring_allreduce_mean",
    "ring_allreduce_sum",
    "signsum_ring_allreduce",
    "split_segments",
]

_WORD_DTYPE = np.dtype("<u8")
_WORD_BITS = 64

Combine = Callable[[Any, Any, int, int], Any]
"""(received, local_segment, step, receiving_rank) -> new local segment.

The received payload carries ``step + 1`` contributions; the rank keys
per-worker state (RNG streams) of stateful combiners.
"""


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


def _ring_ranks(cluster: Cluster, ranks: Sequence[int] | None) -> list[int]:
    if ranks is None:
        return list(range(cluster.num_workers))
    return list(ranks)


def parallel_ring_reduce_scatter(
    cluster: Cluster,
    cycles: Sequence[Sequence[int]],
    segments: Sequence[list[list[Any]]],
    combine: Combine,
    tag: str = "rs",
    on_step_end: Callable[[int, float], None] | None = None,
) -> list[list[int]]:
    """Reduce phase over several *disjoint* ring cycles in lockstep.

    All cycles advance one hop per synchronous step, so transfers on
    different rings overlap — e.g. every row of a torus reduce-scatters
    simultaneously, which is where TAR's latency advantage over a flat ring
    comes from.

    Args:
        cycles: ordered rank cycles; must be pairwise disjoint.
        segments: ``segments[c][p][i]`` — segment ``i`` held by the worker at
            position ``p`` of cycle ``c``; mutated in place.
        combine: folds a received payload into the local segment, called
            as ``combine(received, local, step, rank)`` (see :data:`Combine`).
        on_step_end: called after each synchronous step with
            ``(step, transfer_seconds)`` — the makespan the cluster charged
            for that step's transfers.  Marsit uses it to charge only the
            *excess* of overlapped per-hop work over the receive time.

    Returns:
        ``owned[c][p]``: fully reduced segment index per cycle position.
    """
    sizes = [len(cycle) for cycle in cycles]
    if len(set(sizes)) > 1:
        raise ValueError("all cycles must have equal length")
    if not cycles:
        return []
    size = sizes[0]
    for cycle, cycle_segments in zip(cycles, segments):
        if any(len(worker_segments) != size for worker_segments in cycle_segments):
            raise ValueError("each worker must hold exactly cycle-length segments")
    for step in range(size - 1):
        cluster.begin_step()
        for cycle_idx, cycle in enumerate(cycles):
            for pos in range(size):
                send_idx = (pos - step) % size
                cluster.send(
                    cycle[pos],
                    cycle[(pos + 1) % size],
                    segments[cycle_idx][pos][send_idx],
                    tag=f"{tag}:{step}",
                )
        for cycle_idx, cycle in enumerate(cycles):
            for pos in range(size):
                recv_idx = (pos - 1 - step) % size
                payload = cluster.recv(
                    cycle[pos], cycle[(pos - 1) % size], tag=f"{tag}:{step}"
                )
                segments[cycle_idx][pos][recv_idx] = combine(
                    payload, segments[cycle_idx][pos][recv_idx], step, cycle[pos]
                )
        elapsed = cluster.end_step(tag=f"{tag}:{step}")
        if on_step_end is not None:
            on_step_end(step, elapsed)
    return [[(pos + 1) % size for pos in range(size)] for _ in cycles]


def parallel_ring_all_gather(
    cluster: Cluster,
    cycles: Sequence[Sequence[int]],
    segments: Sequence[list[list[Any]]],
    tag: str = "ag",
) -> None:
    """Gather phase over several disjoint ring cycles in lockstep.

    Assumes the ownership layout of :func:`parallel_ring_reduce_scatter`
    (position ``p`` owns segment ``(p + 1) % size``); mutates in place.
    """
    if not cycles:
        return
    size = len(cycles[0])
    for step in range(size - 1):
        cluster.begin_step()
        for cycle_idx, cycle in enumerate(cycles):
            for pos in range(size):
                send_idx = (pos + 1 - step) % size
                cluster.send(
                    cycle[pos],
                    cycle[(pos + 1) % size],
                    segments[cycle_idx][pos][send_idx],
                    tag=f"{tag}:{step}",
                )
        for cycle_idx, cycle in enumerate(cycles):
            for pos in range(size):
                recv_idx = (pos - step) % size
                payload = cluster.recv(
                    cycle[pos], cycle[(pos - 1) % size], tag=f"{tag}:{step}"
                )
                segments[cycle_idx][pos][recv_idx] = payload
        cluster.end_step(tag=f"{tag}:{step}")


@dataclass
class PackedLaneGrid:
    """Mutable ``(lanes, segments, width)`` stack of packed bit segments.

    The lockstep engine's working set: lane ``l`` is one (cycle, position)
    pair of a parallel ring schedule, and ``words[l, s]`` holds segment ``s``
    of that lane's vector in :class:`~repro.comm.bits.PackedBits` word layout
    (zero-padded to the shared ``width``).  A synchronous step then gathers
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


#: Lockstep combine: (received_batch, local_batch, step, receiving_ranks)
#: -> merged batch.  One call merges every lane of a synchronous step.
BatchCombine = Callable[
    [PackedBitsBatch, PackedBitsBatch, int, Sequence[int]], PackedBitsBatch
]


def _lockstep_lanes(
    cycles: Sequence[Sequence[int]], grid: PackedLaneGrid
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Shared lane bookkeeping for the lockstep schedules.

    Lane order is cycle-major: lane ``c * size + p`` is position ``p`` of
    cycle ``c`` — the same flattening :meth:`PackedLaneGrid.from_sign_matrix`
    assumes when the caller stacks vectors rank-by-rank.
    """
    sizes = {len(cycle) for cycle in cycles}
    if len(sizes) > 1:
        raise ValueError("all cycles must have equal length")
    size = next(iter(sizes))
    num_cycles = len(cycles)
    lanes = num_cycles * size
    if grid.num_lanes != lanes or grid.num_segments != size:
        raise ValueError(
            f"grid of {grid.num_lanes}x{grid.num_segments} does not match "
            f"{num_cycles} cycles of length {size}"
        )
    pos = np.tile(np.arange(size), num_cycles)
    base = np.repeat(np.arange(num_cycles) * size, size)
    src_lane = base + (pos - 1) % size
    ranks = [rank for cycle in cycles for rank in cycle]
    return size, pos, src_lane, np.arange(lanes), ranks


def lockstep_ring_reduce_scatter(
    cluster: Cluster,
    cycles: Sequence[Sequence[int]],
    grid: PackedLaneGrid,
    combine: BatchCombine,
    tag: str = "rs",
    on_step_end: Callable[[int, float], None] | None = None,
) -> list[list[int]]:
    """Batched :func:`parallel_ring_reduce_scatter` over a packed lane grid.

    Same schedule, same ownership result, same traffic accounting — but each
    synchronous step is one fancy-index gather, one ``combine`` over a
    :class:`~repro.comm.bits.PackedBitsBatch`, one scatter, and one bulk
    :meth:`~repro.comm.cluster.Cluster.exchange`, independent of worker
    count.  ``combine`` receives the receiving ranks in lane order so
    stateful combiners (per-rank RNG streams) stay bit-identical to the
    scalar path.
    """
    if not cycles:
        return []
    size, pos, src_lane, lane_idx, ranks = _lockstep_lanes(cycles, grid)
    rank_arr = np.asarray(ranks)
    src_rank = rank_arr[src_lane]
    for step in range(size - 1):
        seg = (pos - 1 - step) % size
        received = PackedBitsBatch._trusted(
            grid.words[src_lane, seg], grid.lengths[src_lane, seg]
        )
        local = PackedBitsBatch._trusted(
            grid.words[lane_idx, seg], grid.lengths[lane_idx, seg]
        )
        merged = combine(received, local, step, ranks)
        grid.words[lane_idx, seg] = merged.words
        grid.lengths[lane_idx, seg] = merged.lengths
        nbytes = (received.lengths + 7) // 8
        elapsed = cluster.exchange(
            [
                (int(src_rank[i]), int(rank_arr[i]), int(nbytes[i]))
                for i in range(lane_idx.size)
            ],
            tag=f"{tag}:{step}",
        )
        if on_step_end is not None:
            on_step_end(step, elapsed)
    return [[(p + 1) % size for p in range(size)] for _ in cycles]


def lockstep_ring_all_gather(
    cluster: Cluster,
    cycles: Sequence[Sequence[int]],
    grid: PackedLaneGrid,
    tag: str = "ag",
) -> None:
    """Batched :func:`parallel_ring_all_gather` over a packed lane grid.

    Assumes the ownership layout of :func:`lockstep_ring_reduce_scatter`
    (position ``p`` owns segment ``(p + 1) % size``); mutates the grid in
    place, circulating whole word rows with fancy-index copies.
    """
    if not cycles:
        return
    size, pos, src_lane, lane_idx, ranks = _lockstep_lanes(cycles, grid)
    rank_arr = np.asarray(ranks)
    src_rank = rank_arr[src_lane]
    for step in range(size - 1):
        seg = (pos - step) % size
        moved_words = grid.words[src_lane, seg]
        moved_lengths = grid.lengths[src_lane, seg]
        grid.words[lane_idx, seg] = moved_words
        grid.lengths[lane_idx, seg] = moved_lengths
        nbytes = (moved_lengths + 7) // 8
        cluster.exchange(
            [
                (int(src_rank[i]), int(rank_arr[i]), int(nbytes[i]))
                for i in range(lane_idx.size)
            ],
            tag=f"{tag}:{step}",
        )


def cycle_reduce_steps(
    grid: str,
    num_cycles: int,
    size: int,
    base_weight: int,
    segment_elems: int,
    tag: str,
) -> list[Step]:
    """Compile the reduce-scatter phase of disjoint lockstep ring cycles.

    The SyncPlan mirror of :func:`parallel_ring_reduce_scatter` under the
    Marsit ``⊙`` combine: ``size - 1`` fused SendRecv/MergeSign hops, each a
    single wave in cycle-major lane order (lane ``c * size + p``), preceded
    by the phase barrier that pre-charges the first segment's sign pack.
    Position ``p`` merges segment ``(p - 1 - step) % size`` from its ring
    predecessor with weights ``(step + 1) * base_weight : base_weight``.
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

    Mirrors :func:`parallel_ring_all_gather`'s ownership walk: at step ``s``
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


def cycle_allreduce(
    cluster: Cluster,
    vectors: Sequence[np.ndarray],
    codec: WireCodec,
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]] = (),
    tags: tuple[str, str] = ("", ""),
) -> list[np.ndarray]:
    """The one sum schedule over disjoint rank cycles: ring and torus.

    Row cycles reduce-scatter; column cycles (if longer than one) all-reduce
    each rank's owned row segment, a sum over its row; row cycles then
    all-gather.  A phase's cycles advance in lockstep; a ring is one row and
    no columns.  ``vectors[i]`` (and result ``i``) belongs to rank ``i`` of
    ``rows`` flattened; ``codec`` sizes each hop by the workers its partial
    sum covers; ``tags`` prefix the row and column phases' message tags.
    """
    ranks = [rank for row in rows for rank in row]
    if len(vectors) != len(ranks):
        raise ValueError(f"expected {len(ranks)} vectors, got {len(vectors)}")
    if len({int(np.asarray(vector).size) for vector in vectors}) > 1:
        raise ValueError("all vectors must share one dimension")
    if len(ranks) == 1:
        return [codec.single(vectors[0])]
    size = len(rows[0])

    def split(vector, parts, contributors):
        return [
            codec.encode(part, contributors)
            for part in split_segments(vector, parts, copy=False)
        ]

    def reduce_scatter(cycles, segments, base, tag):
        def combine(received, local, step, rank):
            return codec.combine(received, local, (step + 2) * base)

        return parallel_ring_reduce_scatter(
            cluster, cycles, segments, combine, tag=f"{tag}rs"
        )

    segments = [
        [split(codec.cast(vectors[c * size + p]), size, 1) for p in range(size)]
        for c in range(len(rows))
    ]
    owned = reduce_scatter(rows, segments, 1, tags[0]) if size > 1 else None
    held = {
        rank: (segments[c][p], owned[c][p] if owned else 0)
        for c, row in enumerate(rows)
        for p, rank in enumerate(row)
    }
    if cols and len(cols[0]) > 1:
        col_segments = [
            [split(codec.value(held[r][0][held[r][1]]), len(col), size) for r in col]
            for col in cols
        ]
        reduce_scatter(cols, col_segments, size, tags[1])
        parallel_ring_all_gather(cluster, cols, col_segments, tag=f"{tags[1]}ag")
        for col, col_segs in zip(cols, col_segments):
            for rank, parts in zip(col, col_segs):
                row_segments, own = held[rank]
                merged = np.concatenate([codec.value(part) for part in parts])
                row_segments[own] = codec.encode(merged, len(ranks))
    if size > 1:
        parallel_ring_all_gather(cluster, rows, segments, tag=f"{tags[0]}ag")
    return [codec.finish(held[rank][0]) for rank in ranks]


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


def ring_allreduce_sum(
    cluster: Cluster,
    vectors: list[np.ndarray],
    ranks: Sequence[int] | None = None,
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """Full-precision ring all-reduce; returns the per-worker sums.

    Floats travel and accumulate as ``wire_dtype`` (FP32 by default, the
    paper's non-compressed baseline).  ``ranks`` selects a sub-ring.
    """
    return cycle_allreduce(
        cluster, vectors, FloatCodec(wire_dtype), [_ring_ranks(cluster, ranks)]
    )


def ring_allreduce_mean(
    cluster: Cluster,
    vectors: list[np.ndarray],
    ranks: Sequence[int] | None = None,
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """Ring all-reduce returning per-worker means."""
    return mean_of(ring_allreduce_sum(cluster, vectors, ranks, wire_dtype))


def ring_allgather_scalars(cluster: Cluster, values: list[float]) -> np.ndarray:
    """All-gather one scalar per worker around the ring (``M - 1`` steps)."""
    return cycle_allgather_scalars(
        cluster, values, [[list(range(cluster.num_workers))]]
    )


def signsum_ring_allreduce(
    cluster: Cluster,
    sign_vectors: list[np.ndarray],
    ranks: Sequence[int] | None = None,
    charge_compression: bool = True,
    elias_coded: bool = False,
) -> list[np.ndarray]:
    """Ring all-reduce of ``{-1, +1}`` sign sums with bit-length expansion.

    The SSDM-under-MAR baseline of Section 3.1: a partial sum over ``m``
    workers is charged ``ceil(log2(m + 1)) + 1`` bits per element, so hops
    grow to ``~log2(M)`` bits and never shrink back to one.
    ``charge_compression`` charges sign extraction to the timeline;
    ``elias_coded`` charges the exact Elias-gamma size instead of the fixed
    width (:class:`~repro.allreduce.codec.SignSumCodec`).  Returns the
    per-worker integer sums (all equal).
    """
    return cycle_allreduce(
        cluster,
        checked_signs(cluster, sign_vectors, charge_compression),
        SignSumCodec(elias_coded),
        [_ring_ranks(cluster, ranks)],
    )
