"""The two SyncPlan interpreters.

Both executors run *any* plan; the per-topology knowledge lives entirely in
the compilers (:mod:`repro.allreduce`).  They differ only in how a one-bit
hop's merges and transfers are realized:

- :class:`ScalarExecutor` keeps per-lane :class:`~repro.comm.bits.PackedBits`
  segment lists and moves one message at a time through
  ``Cluster.send``/``recv`` — the reference path.
- :class:`LaneStackedExecutor` keeps each grid as one
  :class:`~repro.allreduce.ring.PackedLaneGrid` and executes each hop as one
  fancy-index gather, one batched merge expression, and one bulk
  ``Cluster.exchange`` — the lockstep path.

Sum plans (:func:`~repro.sched.plan.as_sum_plan`: the FP32 mean, the
integer sign sum, cascading compression) run once, in the shared base
(:meth:`_PlanExecutor.run_sum`), message by message through
``Cluster.send``/``recv`` under a wire codec, so both engines return the
same sums and a terminal loss raises ``LookupError`` on either.

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
registered topology.  A step's transfers on one link travel as one message
on both engines, sized as the sum of their segments.

Cost accounting per one-bit reduce hop (Section 4.1.1's overlap claim): the
sign extraction and the transient draw for the next segment overlap the
transfer, so only their excess over the transfer makespan is charged; the
post-receive bit merge needs the received bits and is charged in full.
``repro.allreduce`` is imported lazily inside the run methods: the compilers
over there import :mod:`repro.sched.plan` at module scope, and eager imports
here would close the cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

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
    Gather,
    GridSpec,
    MergeSign,
    Pack,
    Restack,
    SendRecv,
    SyncPlan,
    Transfer,
    Unstack,
)

if TYPE_CHECKING:
    from repro.allreduce.codec import WireCodec
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


def _links(transfers: Sequence[Transfer]) -> dict[tuple[int, int], list[int]]:
    """A step's transfers as one message per ``(src_lane, dst_lane)`` link:
    the link's segments, in transfer order."""
    links: dict[tuple[int, int], list[int]] = {}
    for transfer in transfers:
        key = (transfer.src_lane, transfer.dst_lane)
        segs = links.get(key)
        if segs is None:
            links[key] = [transfer.seg]
        else:
            segs.append(transfer.seg)
    return links


def _receive(
    cluster: Cluster,
    ranks: Sequence[int],
    links: dict[tuple[int, int], list[int]],
    inbox: dict[tuple[int, int], dict[int, Any]],
    src: int,
    dst: int,
    tag: str,
) -> dict[int, Any]:
    """Segment -> payload of the message on link ``src -> dst`` (lanes),
    taken from ``dst``'s mailbox the first time a merge asks for it."""
    received = inbox.get((src, dst))
    if received is None:
        payloads = cluster.recv(ranks[dst], ranks[src], tag=tag)
        received = inbox[(src, dst)] = dict(zip(links[(src, dst)], payloads))
    return received


def _link_bytes(
    ranks: Sequence[int], transfers: Sequence[Transfer], nbytes
) -> list[tuple[int, int, int]]:
    """``Cluster.exchange`` entries: one per link, bytes summed over its
    segments (``nbytes[i]`` is transfer ``i``'s size)."""
    totals: dict[tuple[int, int], int] = {}
    for transfer, size in zip(transfers, nbytes):
        key = (ranks[transfer.src_lane], ranks[transfer.dst_lane])
        totals[key] = totals.get(key, 0) + int(size)
    return [(src, dst, size) for (src, dst), size in totals.items()]


def _value(codec: WireCodec, slot: Any) -> Any:
    # A slot is a partial sum (an array) until it is first sent, and the
    # payload that went on the wire from then on.
    return slot if isinstance(slot, np.ndarray) else codec.value(slot)


class _PlanExecutor:
    """Shared plan walking: barriers, charges, and the sum plans."""

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
    # sum plans
    # ------------------------------------------------------------------
    def run_full_precision(
        self, plan: SyncPlan, cluster: Cluster, vectors: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """The K-sync round: run the FP32 sum ``plan`` inside an
        ``fp-allreduce`` span; returns per-worker means."""
        from repro.allreduce.codec import FloatCodec, mean_of

        tracer = cluster.obs.tracer
        tracer.begin("fp-allreduce", cat="phase")
        sums = self.run_sum(plan, cluster, vectors, FloatCodec())
        tracer.end()
        return mean_of(sums)

    def run_sum(
        self,
        plan: SyncPlan,
        cluster: Cluster,
        vectors: Sequence[np.ndarray],
        codec: WireCodec,
    ) -> list[np.ndarray]:
        """Execute a sum plan under ``codec``; returns per-rank results.

        Each lane's slot holds its partial sum until the slot is first
        sent: the sender encodes it for the workers it covers (the sum of
        the merge weights that formed it) and keeps the payload, which
        gathers then forward verbatim.  A merge adds the decoded payload to
        the local partial sum.  ``codec.finish`` concatenates each rank's
        output segments.
        """
        specs = {spec.name: spec for spec in plan.grids}
        slots: dict[str, list[list[Any]]] = {}
        weights: dict[str, list[list[int]]] = {}
        steps = plan.steps
        pos = 0
        while pos < len(steps):
            step = steps[pos]
            if isinstance(step, Barrier):
                self._exec_barrier(cluster, step)
            elif isinstance(step, Pack):
                spec = specs[step.grid]
                # Cast per slice, so no copy of the whole input outlives
                # the slots that still need it.
                slots[step.grid] = [
                    np.array_split(
                        codec.cast(np.asarray(vectors[rank])[step.start : step.stop]),
                        spec.num_segments,
                    )
                    for rank in spec.lane_ranks
                ]
                weights[step.grid] = [
                    [1] * spec.num_segments for _ in spec.lane_ranks
                ]
            elif isinstance(step, Restack):
                source = slots[step.src_grid]
                counts = weights[step.src_grid]
                slots[step.grid] = [
                    np.array_split(_value(codec, source[lane][seg]), step.parts)
                    for lane, seg in step.sources
                ]
                weights[step.grid] = [
                    [counts[lane][seg]] * step.parts for lane, seg in step.sources
                ]
            elif isinstance(step, Unstack):
                source = slots[step.src_grid]
                counts = weights[step.src_grid]
                for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                    slots[step.grid][dst_lane][dst_seg] = np.concatenate(
                        [_value(codec, part) for part in source[lane]]
                    )
                    weights[step.grid][dst_lane][dst_seg] = counts[lane][0]
            elif isinstance(step, SendRecv):
                merge = steps[pos + 1]
                assert isinstance(merge, MergeSign)
                if merge.reduce != codec.op:
                    raise ValueError(
                        f"plan reduces with {merge.reduce}, codec is {codec.op}"
                    )
                self._sum_hop(
                    cluster, specs[step.grid], slots[step.grid],
                    weights[step.grid], step, merge, codec,
                )
                pos += 2
                continue
            elif isinstance(step, Gather):
                self._sum_gather(
                    cluster, specs[step.grid], slots[step.grid],
                    weights[step.grid], step, codec,
                )
            else:
                raise TypeError(
                    f"unexpected step {type(step).__name__} in a sum plan"
                )
            pos += 1
        held: dict[int, list[Any]] = {}
        for out in plan.outputs:
            for lane, rank in enumerate(specs[out.grid].lane_ranks):
                held.setdefault(rank, []).extend(slots[out.grid][lane])
        return [
            codec.finish([_value(codec, slot) for slot in held[rank]])
            for rank in range(len(held))
        ]

    @staticmethod
    def _send_sums(
        cluster: Cluster,
        ranks: Sequence[int],
        links: dict[tuple[int, int], list[int]],
        rows: list[list[Any]],
        weights: list[list[int]],
        tag: str,
        codec: WireCodec,
    ) -> None:
        """Send each link's segments as one message, encoding a partial
        sum the first time it leaves its lane."""
        for (src, dst), segs in links.items():
            payloads = []
            for seg in segs:
                slot = rows[src][seg]
                if isinstance(slot, np.ndarray):
                    slot = rows[src][seg] = codec.encode(
                        slot, weights[src][seg], ranks[src]
                    )
                payloads.append(slot)
            cluster.send(ranks[src], ranks[dst], payloads, tag=tag)

    def _sum_hop(
        self,
        cluster: Cluster,
        spec: GridSpec,
        rows: list[list[Any]],
        weights: list[list[int]],
        send: SendRecv,
        merge: MergeSign,
        codec: WireCodec,
    ) -> None:
        """One fused SendRecv + sum hop, one synchronous step."""
        ranks = spec.lane_ranks
        links = _links(send.transfers)
        cluster.begin_step()
        self._send_sums(cluster, ranks, links, rows, weights, send.tag, codec)
        inbox: dict[tuple[int, int], dict[int, Any]] = {}
        for wave in merge.waves:
            for entry in wave:
                received = _receive(
                    cluster, ranks, links, inbox,
                    entry.src_lane, entry.dst_lane, send.tag,
                )
                dst, seg = entry.dst_lane, entry.seg
                rows[dst][seg] = codec.value(received[seg]) + _value(
                    codec, rows[dst][seg]
                )
                weights[dst][seg] = entry.received_weight + entry.local_weight
        cluster.end_step(tag=send.tag)

    def _sum_gather(
        self,
        cluster: Cluster,
        spec: GridSpec,
        rows: list[list[Any]],
        weights: list[list[int]],
        step: Gather,
        codec: WireCodec,
    ) -> None:
        ranks = spec.lane_ranks
        links = _links(step.transfers)
        cluster.begin_step()
        self._send_sums(cluster, ranks, links, rows, weights, step.tag, codec)
        for (src, dst), segs in links.items():
            payloads = cluster.recv(ranks[dst], ranks[src], tag=step.tag)
            for seg, payload in zip(segs, payloads):
                rows[dst][seg] = payload
                weights[dst][seg] = weights[src][seg]
        cluster.end_step(tag=step.tag)


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
        links = _links(send.transfers)
        cluster.begin_step()
        for (src, dst), segs in links.items():
            cluster.send(
                ranks[src],
                ranks[dst],
                [rows[src][seg] for seg in segs],
                tag=send.tag,
            )
        inbox: dict[tuple[int, int], dict[int, Any]] = {}
        for wave in merge.waves:
            for entry in wave:
                rank = ranks[entry.dst_lane]
                received: PackedBits = _receive(
                    cluster, ranks, links, inbox,
                    entry.src_lane, entry.dst_lane, send.tag,
                )[entry.seg]
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
        links = _links(step.transfers)
        cluster.begin_step()
        for (src, dst), segs in links.items():
            cluster.send(
                ranks[src],
                ranks[dst],
                [rows[src][seg] for seg in segs],
                tag=step.tag,
            )
        for (src, dst), segs in links.items():
            payloads = cluster.recv(ranks[dst], ranks[src], tag=step.tag)
            for seg, payload in zip(segs, payloads):
                rows[dst][seg] = payload
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
        exchange = _link_bytes(
            ranks,
            send.transfers,
            [
                (grid.lengths[transfer.src_lane, transfer.seg] + 7) // 8
                for transfer in send.transfers
            ],
        )
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
        cluster.exchange(
            _link_bytes(ranks, step.transfers, (moved_lengths + 7) // 8),
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
