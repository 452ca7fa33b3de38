"""The two SyncPlan interpreters.

Both executors run *any* plan; the per-topology knowledge lives entirely in
the compilers (:mod:`repro.allreduce`).  They differ only in how a hop's
merges and transfers are realized:

- :class:`ScalarExecutor` keeps per-lane :class:`~repro.comm.bits.PackedBits`
  segment lists and moves one message at a time through
  ``Cluster.send``/``recv`` — the reference path.
- :class:`LaneStackedExecutor` keeps each grid as one
  :class:`~repro.allreduce.ring.PackedLaneGrid` and executes each hop as one
  fancy-index gather, one batched merge expression, and one bulk
  ``Cluster.exchange`` — the lockstep path.

Neither packs: the caller hands ``run_one_bit`` one
:class:`~repro.allreduce.ring.PackedLaneGrid` per ``Pack`` step (the
synchronizer writes them in its compensation pass; :func:`pack_grids` is
the reference packer), and a ``Pack`` step only takes its grid in.  The
batched engine merges into that grid in place; the scalar engine reads it
through zero-copy :meth:`~repro.allreduce.ring.PackedLaneGrid.row` views.

Both consume identical per-rank RNG streams (a plan's merge *waves* pin the
draw order), apply identical cost-model charges, and emit identical traffic
and wire metrics, so the engines stay bit-for-bit interchangeable — the
invariant ``tests/sched/test_engine_identity.py`` enforces for every
registered topology.

Cost accounting per reduce hop (Section 4.1.1's overlap claim): the sign
extraction and the transient draw for the next segment overlap the
transfer, so only their excess over the transfer makespan is charged; the
post-receive bit merge needs the received bits and is charged in full.
``repro.allreduce`` is imported lazily inside the run methods: the compilers
over there import :mod:`repro.sched.plan` at module scope, and eager imports
here would close the cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.comm.bits import PackedBits, PackedBitsBatch
from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.core.sign_ops import (
    merge_sign_bits_batch,
    merge_sign_bits_packed,
    transient_vector_batch,
    transient_vector_packed,
)
from repro.sched.plan import (
    Barrier,
    FpAllReduce,
    Gather,
    GridSpec,
    MergeSign,
    Pack,
    Restack,
    SendRecv,
    SyncPlan,
    Unstack,
)

if TYPE_CHECKING:
    from repro.allreduce.ring import PackedLaneGrid

__all__ = ["LaneStackedExecutor", "ScalarExecutor", "pack_grids"]


def pack_grids(plan: SyncPlan, matrix: np.ndarray) -> dict[str, PackedLaneGrid]:
    """Pack ``matrix``'s signs for every ``Pack`` step of ``plan``.

    ``matrix`` holds one row per cluster rank; grid lane ``l`` packs row
    ``lane_ranks[l]`` over the step's columns with
    :meth:`~repro.allreduce.ring.PackedLaneGrid.from_sign_matrix`.  This is
    the reference packer: the synchronizer writes the same words inside its
    compensation pass, and tests and benchmarks pack with this one.
    """
    from repro.allreduce.ring import PackedLaneGrid

    specs = {spec.name: spec for spec in plan.grids}
    grids = {}
    for step in plan.steps:
        if isinstance(step, Pack):
            spec = specs[step.grid]
            lanes = list(spec.lane_ranks)
            if lanes == list(range(matrix.shape[0])):
                # Identity lane order: basic slicing keeps this a view
                # instead of a fancy-index copy of the whole matrix.
                rows = matrix[:, step.start : step.stop]
            else:
                rows = matrix[lanes, step.start : step.stop]
            grids[step.grid] = PackedLaneGrid.from_sign_matrix(
                rows, spec.num_segments
            )
    return grids


class _PlanExecutor:
    """Shared plan walking: barriers, charges, and the full-precision path."""

    name = "?"

    # ------------------------------------------------------------------
    # shared step handling
    # ------------------------------------------------------------------
    def _exec_barrier(self, cluster: Cluster, step: Barrier) -> None:
        tracer = cluster.obs.tracer
        if step.kind == "begin":
            if step.tag is None:
                tracer.begin(step.span, cat="phase")
            else:
                tracer.begin(step.span, cat="phase", tag=step.tag)
            if step.compress_elems is not None:
                # The first outgoing segment's signs must exist before hop 0.
                cluster.charge(
                    Phase.COMPRESSION,
                    cluster.cost_model.compress_time(step.compress_elems),
                )
        elif step.kind == "end":
            tracer.end()
        else:
            raise ValueError(f"unknown barrier kind {step.kind!r}")

    def _charge_hop(
        self, cluster: Cluster, merge: MergeSign, transfer: float
    ) -> None:
        # Sign extraction + transient draw for the next hop overlap the
        # transfer (Section 4.1.1); only the excess is critical path.
        model = cluster.cost_model
        if merge.compress_elems is not None:
            overlapped = model.compress_time(
                merge.compress_elems
            ) + model.rng_time(merge.rng_elems)
        else:
            overlapped = model.rng_time(merge.rng_elems)
        cluster.charge(Phase.COMPRESSION, max(0.0, overlapped - transfer))
        # The merge itself needs the received bits: charged in full.
        cluster.charge(
            Phase.COMPRESSION, model.bitop_time(merge.bitop_elems)
        )

    # ------------------------------------------------------------------
    # full-precision plans
    # ------------------------------------------------------------------
    def run_full_precision(
        self, plan: SyncPlan, cluster: Cluster, vectors: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Execute a ``kind="full_precision"`` plan; returns per-worker means."""
        outputs: list[np.ndarray] | None = None
        for step in plan.steps:
            if isinstance(step, Barrier):
                self._exec_barrier(cluster, step)
            elif isinstance(step, FpAllReduce):
                from repro.allreduce import get_topology

                outputs = get_topology(step.topology).mean_allreduce(
                    cluster, vectors
                )
            else:
                raise TypeError(
                    f"unexpected step {type(step).__name__} in a "
                    "full-precision plan"
                )
        if outputs is None:
            raise ValueError("full-precision plan ran no FpAllReduce step")
        return outputs


class ScalarExecutor(_PlanExecutor):
    """Per-message reference interpreter over PackedBits segment lists."""

    name = "scalar"

    def run_one_bit(
        self,
        plan: SyncPlan,
        cluster: Cluster,
        packed: Mapping[str, PackedLaneGrid],
        rngs: Sequence[np.random.Generator],
        verify_consensus: bool = True,
    ) -> PackedBits:
        specs = {spec.name: spec for spec in plan.grids}
        segs: dict[str, list[list[PackedBits]]] = {}
        steps = plan.steps
        pos = 0
        while pos < len(steps):
            step = steps[pos]
            if isinstance(step, Barrier):
                self._exec_barrier(cluster, step)
            elif isinstance(step, Pack):
                grid = packed[step.grid]
                segs[step.grid] = [
                    grid.segments_of(lane) for lane in range(grid.num_lanes)
                ]
            elif isinstance(step, Restack):
                source = segs[step.src_grid]
                segs[step.grid] = [
                    source[src_lane][src_seg].split(step.parts)
                    for src_lane, src_seg in step.sources
                ]
            elif isinstance(step, Unstack):
                source = segs[step.src_grid]
                target = segs[step.grid]
                for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                    target[dst_lane][dst_seg] = PackedBits.concat(source[lane])
            elif isinstance(step, SendRecv):
                merge = steps[pos + 1]
                assert isinstance(merge, MergeSign)
                self._reduce_hop(
                    cluster, specs[step.grid], segs[step.grid], step, merge,
                    rngs,
                )
                pos += 2
                continue
            elif isinstance(step, Gather):
                self._gather_hop(cluster, specs[step.grid], segs[step.grid], step)
            else:
                raise TypeError(
                    f"unexpected step {type(step).__name__} in a one-bit plan"
                )
            pos += 1
        return self._collect(plan, segs, verify_consensus)

    def _reduce_hop(
        self,
        cluster: Cluster,
        spec: GridSpec,
        rows: list[list[PackedBits]],
        send: SendRecv,
        merge: MergeSign,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """One fused SendRecv + MergeSign hop, one synchronous step."""
        ranks = spec.lane_ranks
        metrics = cluster.obs.metrics
        faults = cluster.faults
        flips = faults is not None and faults.flips_active
        cluster.begin_step()
        for transfer in send.transfers:
            cluster.send(
                ranks[transfer.src_lane],
                ranks[transfer.dst_lane],
                rows[transfer.src_lane][transfer.seg],
                tag=send.tag,
            )
        for wave in merge.waves:
            for entry in wave:
                rank = ranks[entry.dst_lane]
                received: PackedBits = cluster.recv(
                    rank, ranks[entry.src_lane], tag=send.tag
                )
                if flips:
                    # Wire corruption lands on the received copy before the
                    # merge; the mask is keyed by (tag, link), so the
                    # batched engine applies the identical one.
                    mask = faults.flip_mask(
                        send.tag, ranks[entry.src_lane], rank, len(received)
                    )
                    if mask is not None:
                        received = received ^ mask
                local = rows[entry.dst_lane][entry.seg]
                transient = transient_vector_packed(
                    local,
                    received_weight=entry.received_weight,
                    local_weight=entry.local_weight,
                    rng=rngs[rank],
                )
                if metrics is not None:
                    # Disagreeing coordinates are exactly the ones the
                    # transient vector decides (⊙ keeps agreements verbatim).
                    metrics.counter("marsit.transient_draws").inc(
                        (received ^ local).popcount()
                    )
                    metrics.counter("marsit.merged_bits").inc(len(local))
                rows[entry.dst_lane][entry.seg] = merge_sign_bits_packed(
                    received, local, transient
                )
        elapsed = cluster.end_step(tag=send.tag)
        self._charge_hop(cluster, merge, elapsed)

    def _gather_hop(
        self,
        cluster: Cluster,
        spec: GridSpec,
        rows: list[list[PackedBits]],
        step: Gather,
    ) -> None:
        ranks = spec.lane_ranks
        cluster.begin_step()
        for transfer in step.transfers:
            cluster.send(
                ranks[transfer.src_lane],
                ranks[transfer.dst_lane],
                rows[transfer.src_lane][transfer.seg],
                tag=step.tag,
            )
        for transfer in step.transfers:
            rows[transfer.dst_lane][transfer.seg] = cluster.recv(
                ranks[transfer.dst_lane], ranks[transfer.src_lane], tag=step.tag
            )
        cluster.end_step(tag=step.tag)

    def _collect(
        self,
        plan: SyncPlan,
        segs: dict[str, list[list[PackedBits]]],
        verify_consensus: bool,
    ) -> PackedBits:
        pieces: list[PackedBits] = []
        for out in plan.outputs:
            rows = segs[out.grid]
            final = PackedBits.concat(rows[0])
            if verify_consensus:
                for lane in range(1, len(rows)):
                    if not final.equals(PackedBits.concat(rows[lane])):
                        raise AssertionError(
                            f"consensus violated after {out.where}"
                        )
            pieces.append(final)
        if len(pieces) == 1:
            return pieces[0]
        return PackedBits.concat(pieces)


class LaneStackedExecutor(_PlanExecutor):
    """Lockstep interpreter: one batched numpy op per hop over all lanes."""

    name = "batched"

    def run_one_bit(
        self,
        plan: SyncPlan,
        cluster: Cluster,
        packed: Mapping[str, PackedLaneGrid],
        rngs: Sequence[np.random.Generator],
        verify_consensus: bool = True,
    ) -> PackedBits:
        from repro.allreduce.ring import PackedLaneGrid

        specs = {spec.name: spec for spec in plan.grids}
        grids: dict[str, PackedLaneGrid] = {}
        steps = plan.steps
        pos = 0
        while pos < len(steps):
            step = steps[pos]
            if isinstance(step, Barrier):
                self._exec_barrier(cluster, step)
            elif isinstance(step, Pack):
                # The hops merge into the packed grid in place.
                grids[step.grid] = packed[step.grid]
            elif isinstance(step, Restack):
                source = grids[step.src_grid]
                grids[step.grid] = PackedLaneGrid.from_packed_rows(
                    [
                        source.row(src_lane, src_seg).split(step.parts)
                        for src_lane, src_seg in step.sources
                    ]
                )
            elif isinstance(step, Unstack):
                source = grids[step.src_grid]
                target = grids[step.grid]
                for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                    target.set_row(
                        dst_lane,
                        dst_seg,
                        PackedBits.concat(source.segments_of(lane)),
                    )
            elif isinstance(step, SendRecv):
                merge = steps[pos + 1]
                assert isinstance(merge, MergeSign)
                self._reduce_hop(
                    cluster, specs[step.grid], grids[step.grid], step, merge,
                    rngs,
                )
                pos += 2
                continue
            elif isinstance(step, Gather):
                self._gather_hop(
                    cluster, specs[step.grid], grids[step.grid], step
                )
            else:
                raise TypeError(
                    f"unexpected step {type(step).__name__} in a one-bit plan"
                )
            pos += 1
        return self._collect(plan, grids, verify_consensus)

    def _reduce_hop(
        self,
        cluster: Cluster,
        spec: GridSpec,
        grid,
        send: SendRecv,
        merge: MergeSign,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """One fused hop: batched merges first (payload sizes are read
        pre-merge), then the bulk exchange — the lockstep ordering."""
        ranks = spec.lane_ranks
        metrics = cluster.obs.metrics
        faults = cluster.faults
        flips = faults is not None and faults.flips_active
        exchange = [
            (
                ranks[transfer.src_lane],
                ranks[transfer.dst_lane],
                int(
                    (grid.lengths[transfer.src_lane, transfer.seg] + 7) // 8
                ),
            )
            for transfer in send.transfers
        ]
        for wave in merge.waves:
            dst = np.fromiter(
                (entry.dst_lane for entry in wave), dtype=np.int64,
                count=len(wave),
            )
            src = np.fromiter(
                (entry.src_lane for entry in wave), dtype=np.int64,
                count=len(wave),
            )
            seg = np.fromiter(
                (entry.seg for entry in wave), dtype=np.int64, count=len(wave)
            )
            received = PackedBitsBatch._trusted(
                grid.words[src, seg], grid.lengths[src, seg]
            )
            local = PackedBitsBatch._trusted(
                grid.words[dst, seg], grid.lengths[dst, seg]
            )
            if flips:
                # Same per-(tag, link) masks the scalar engine draws; the
                # fancy-indexed gather above copies, so XOR-ing rows here
                # never touches the grid's own storage.
                for row, entry in enumerate(wave):
                    mask = faults.flip_mask(
                        send.tag,
                        ranks[entry.src_lane],
                        ranks[entry.dst_lane],
                        int(received.lengths[row]),
                    )
                    if mask is not None:
                        received.words[row, : mask.words.size] ^= mask.words
            transient = transient_vector_batch(
                local,
                received_weights=np.fromiter(
                    (entry.received_weight for entry in wave),
                    dtype=np.int64,
                    count=len(wave),
                ),
                local_weights=np.fromiter(
                    (entry.local_weight for entry in wave),
                    dtype=np.int64,
                    count=len(wave),
                ),
                rngs=[rngs[ranks[entry.dst_lane]] for entry in wave],
            )
            if metrics is not None:
                # Same statistic as the scalar path, batched over lanes.
                metrics.counter("marsit.transient_draws").inc(
                    int((received ^ local).popcounts().sum())
                )
                metrics.counter("marsit.merged_bits").inc(
                    int(local.lengths.sum())
                )
            merged = merge_sign_bits_batch(received, local, transient)
            grid.words[dst, seg] = merged.words
            grid.lengths[dst, seg] = merged.lengths
        elapsed = cluster.exchange(exchange, tag=send.tag)
        self._charge_hop(cluster, merge, elapsed)

    def _gather_hop(
        self, cluster: Cluster, spec: GridSpec, grid, step: Gather
    ) -> None:
        ranks = spec.lane_ranks
        src = np.fromiter(
            (t.src_lane for t in step.transfers), dtype=np.int64,
            count=len(step.transfers),
        )
        dst = np.fromiter(
            (t.dst_lane for t in step.transfers), dtype=np.int64,
            count=len(step.transfers),
        )
        seg = np.fromiter(
            (t.seg for t in step.transfers), dtype=np.int64,
            count=len(step.transfers),
        )
        # Fancy indexing copies, so overlapping src/dst slots are safe.
        moved_words = grid.words[src, seg]
        moved_lengths = grid.lengths[src, seg]
        grid.words[dst, seg] = moved_words
        grid.lengths[dst, seg] = moved_lengths
        nbytes = (moved_lengths + 7) // 8
        cluster.exchange(
            [
                (
                    ranks[t.src_lane],
                    ranks[t.dst_lane],
                    int(nbytes[i]),
                )
                for i, t in enumerate(step.transfers)
            ],
            tag=step.tag,
        )

    def _collect(
        self, plan: SyncPlan, grids: dict, verify_consensus: bool
    ) -> PackedBits:
        pieces: list[PackedBits] = []
        for out in plan.outputs:
            grid = grids[out.grid]
            if verify_consensus and grid.num_lanes > 1:
                if (grid.lengths != grid.lengths[0]).any() or (
                    grid.words != grid.words[0]
                ).any():
                    raise AssertionError(
                        f"consensus violated after {out.where}"
                    )
            pieces.append(PackedBits.concat(grid.segments_of(0)))
        if len(pieces) == 1:
            return pieces[0]
        return PackedBits.concat(pieces)
