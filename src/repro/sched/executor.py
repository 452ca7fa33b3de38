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
  ``Cluster.exchange`` — the lockstep path.  Its index arrays, weights and
  per-link byte tables are compiled once per plan (:func:`_compile_hops`).

Sum plans (:func:`~repro.sched.plan.as_sum_plan`: the FP32 mean, the
integer sign sum, cascading compression) run once, in the shared base
(:meth:`_PlanExecutor.run_sum`), message by message through
``Cluster.send``/``recv`` under a wire codec, so both engines return the
same sums and a terminal loss raises ``LookupError`` on either.  Gathers
forward payloads verbatim, so ranks end up holding the same segment
arrays; each distinct set of output segments is finished once, into one
read-only array that every rank holding it shares.

Neither packs: the caller hands ``run_one_bit`` one
:class:`~repro.allreduce.ring.PackedLaneGrid` per ``Pack`` step (the
synchronizer writes them in its compensation pass; :func:`pack_grids` is
the reference packer), and a ``Pack`` step only takes its grid in.  The
batched engine merges into that grid in place; the scalar engine reads it
through zero-copy :meth:`~repro.allreduce.ring.PackedLaneGrid.row` views.

Neither draws either: both consume one table drawn by the synchronizer
(:func:`draw_transients`: each merge *wave*'s ``B`` words, in plan order,
from the receiving ranks' generators), apply identical cost-model charges,
and emit identical traffic and wire metrics, so the engines stay
bit-for-bit interchangeable — the invariant
``tests/sched/test_engine_identity.py`` enforces for every registered
topology.  A step's transfers on one link travel as one message
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

import weakref
from typing import TYPE_CHECKING, Any, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.comm.bits import PackedBits, PackedBitsBatch
from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.core.sign_ops import (
    _bernoulli_words,
    merge_sign_bits_batch,
    merge_sign_bits_packed,
    transient_vector_batch,
    transient_vector_packed,
)
from repro.sched.plan import (
    Barrier,
    Gather,
    GridSpec,
    Merge,
    MergeSign,
    Pack,
    Restack,
    SendRecv,
    SyncPlan,
    Transfer,
    Unstack,
    plan_segment_lengths,
)

if TYPE_CHECKING:
    from repro.allreduce.codec import WireCodec
    from repro.allreduce.ring import PackedLaneGrid

__all__ = ["LaneStackedExecutor", "ScalarExecutor", "draw_transients", "pack_grids"]

_WORD_BITS = 64


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


class _Wave(NamedTuple):
    """One merge wave as index arrays: row ``i`` merges segment ``seg[i]``
    of lane ``src[i]`` into lane ``dst[i]``."""

    dst: np.ndarray
    src: np.ndarray
    seg: np.ndarray
    received_weights: np.ndarray
    local_weights: np.ndarray
    #: receiving rank per row: whose generator draws its transient.
    ranks: tuple[int, ...]
    #: ``(src rank, dst rank)`` per row: the link a flip mask is keyed by.
    links: tuple[tuple[int, int], ...]
    #: bits per row (the merged segments' length) and the grid's word width.
    lengths: np.ndarray
    width: int


class _Hop(NamedTuple):
    """A ``SendRecv`` + ``MergeSign`` pair or a ``Gather``, compiled.

    ``exchange`` holds the ``Cluster.exchange`` entries: one per link,
    bytes summed over its segments.  A reduce hop has ``waves``; a gather
    has ``moves``, its transfers' ``(src, dst, seg)`` index arrays.
    """

    exchange: list[tuple[int, int, int]]
    waves: tuple[_Wave, ...] = ()
    moves: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _index(values) -> np.ndarray:
    array = np.array(values, dtype=np.int64)
    array.flags.writeable = False
    return array


def _wave(
    ranks: Sequence[int],
    merges: Sequence[Merge],
    slots: list[list[int]],
    width: int,
) -> _Wave:
    return _Wave(
        dst=_index([merge.dst_lane for merge in merges]),
        src=_index([merge.src_lane for merge in merges]),
        seg=_index([merge.seg for merge in merges]),
        received_weights=_index([merge.received_weight for merge in merges]),
        local_weights=_index([merge.local_weight for merge in merges]),
        ranks=tuple(ranks[merge.dst_lane] for merge in merges),
        links=tuple(
            (ranks[merge.src_lane], ranks[merge.dst_lane]) for merge in merges
        ),
        lengths=_index([slots[merge.dst_lane][merge.seg] for merge in merges]),
        width=width,
    )


def _exchange(
    ranks: Sequence[int], transfers: Sequence[Transfer], slots: list[list[int]]
) -> list[tuple[int, int, int]]:
    """One entry per link, in first-transfer order; ``slots`` holds the
    grid's segment lengths in bits, read before the hop moves anything."""
    totals: dict[tuple[int, int], int] = {}
    for transfer in transfers:
        key = (ranks[transfer.src_lane], ranks[transfer.dst_lane])
        size = (slots[transfer.src_lane][transfer.seg] + 7) // 8
        totals[key] = totals.get(key, 0) + size
    return [(src, dst, size) for (src, dst), size in totals.items()]


def _compile_hops(plan: SyncPlan) -> dict[int, _Hop]:
    """Step position -> :class:`_Hop` for every hop of ``plan``.

    Segment lengths are a function of the plan alone: ``Pack`` and
    ``Restack`` cut with ``numpy.array_split`` boundaries, ``Unstack``
    concatenates, and hops move or merge equal-length segments.  So the
    per-link byte tables and each wave's lengths are compiled with the
    index arrays, and so is each grid's word width, which ``Pack`` and
    ``Restack`` fix from their longest segment.
    """
    specs = {spec.name: spec for spec in plan.grids}
    slots: dict[str, list[list[int]]] = {}
    widths: dict[str, int] = {}
    tables: dict[int, _Hop] = {}
    for pos, step in enumerate(plan.steps):
        if isinstance(step, (Pack, Restack)):
            if isinstance(step, Pack):
                spec = specs[step.grid]
                slots[step.grid] = [
                    plan_segment_lengths(
                        step.stop - step.start, spec.num_segments
                    )
                    for _ in spec.lane_ranks
                ]
            else:
                source = slots[step.src_grid]
                slots[step.grid] = [
                    plan_segment_lengths(source[lane][seg], step.parts)
                    for lane, seg in step.sources
                ]
            longest = max(max(row, default=0) for row in slots[step.grid])
            widths[step.grid] = -(-longest // _WORD_BITS)
        elif isinstance(step, Unstack):
            source = slots[step.src_grid]
            for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                slots[step.grid][dst_lane][dst_seg] = sum(source[lane])
        elif isinstance(step, SendRecv):
            ranks = specs[step.grid].lane_ranks
            merge = plan.steps[pos + 1]
            grid = slots[step.grid]
            tables[pos] = _Hop(
                exchange=_exchange(ranks, step.transfers, grid),
                waves=tuple(
                    _wave(ranks, wave, grid, widths[step.grid])
                    for wave in merge.waves
                ),
            )
        elif isinstance(step, Gather):
            ranks = specs[step.grid].lane_ranks
            grid = slots[step.grid]
            tables[pos] = _Hop(
                exchange=_exchange(ranks, step.transfers, grid),
                moves=tuple(
                    _index([getattr(t, field) for t in step.transfers])
                    for field in ("src_lane", "dst_lane", "seg")
                ),
            )
            moved = [grid[t.src_lane][t.seg] for t in step.transfers]
            for transfer, length in zip(step.transfers, moved):
                grid[transfer.dst_lane][transfer.seg] = length
    return tables


#: id(plan) -> (weak reference to the plan, its compiled hops); an entry
#: leaves with its plan.
_HOPS: dict[int, tuple[weakref.ref, dict[int, _Hop]]] = {}


def _hops_for(plan: SyncPlan) -> dict[int, _Hop]:
    cached = _HOPS.get(id(plan))
    if cached is not None and cached[0]() is plan:
        return cached[1]
    tables = _compile_hops(plan)
    _HOPS[id(plan)] = (weakref.ref(plan), tables)
    weakref.finalize(plan, _HOPS.pop, id(plan), None)
    return tables


def draw_transients(
    plan: SyncPlan,
    rngs: Sequence[np.random.Generator],
    out: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Draw a one-bit round's ``B`` words before any hop runs.

    Returns one ``(lanes, width)`` ``uint64`` matrix per ``MergeSign``
    wave, in plan order: row ``i`` is entry ``i``'s ``B`` (bits past its
    segment unspecified), drawn from ``rngs[rank]`` of the receiving rank
    (``rngs`` is indexed by cluster rank).  ``B`` depends only on the
    weights and segment lengths, which the plan fixes, so this is the draw
    both executors used to make hop by hop: waves run in the same order and
    a rank appears at most once per wave, so every rank's stream is
    unchanged.  ``run_one_bit`` consumes the table (overwrites it); pass
    a consumed table of the same plan as ``out`` to draw into it again.
    """
    waves = [wave for hop in _hops_for(plan).values() for wave in hop.waves]
    if out is None:
        out = [None] * len(waves)
    return [
        _bernoulli_words(
            wave.lengths,
            wave.width,
            wave.received_weights,
            wave.local_weights,
            [rngs[rank] for rank in wave.ranks],
            words,
        )
        for wave, words in zip(waves, out)
    ]


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

    @staticmethod
    def _table(plan: SyncPlan, transients: Sequence[np.ndarray]):
        """An iterator over ``transients``, checked to hold one matrix per
        ``MergeSign`` wave of ``plan``."""
        waves = sum(
            len(step.waves) for step in plan.steps if isinstance(step, MergeSign)
        )
        if len(transients) != waves:
            raise ValueError(
                f"transient table holds {len(transients)} waves, "
                f"the plan runs {waves}"
            )
        return iter(transients)

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
        ``fp-allreduce`` span; returns per-worker means (shared read-only
        arrays, one per distinct output)."""
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

        Each lane's slot holds its partial sum (``codec.partial_dtype`` of
        the plan's worker count) until the slot is first sent: the sender
        encodes it for the workers it covers (the sum of the merge weights
        that formed it) and keeps the payload, which gathers then forward
        verbatim.  A merge adds the decoded payload to the local partial
        sum.  Ranks whose output segments decode to the same arrays share
        one read-only ``codec.finish`` of them.
        """
        specs = {spec.name: spec for spec in plan.grids}
        slots: dict[str, list[list[Any]]] = {}
        weights: dict[str, list[list[int]]] = {}
        # Payload object -> its decoded value, so a payload many ranks hold
        # decodes once and every holder sees the same array.
        decoded: dict[int, tuple[Any, np.ndarray]] = {}

        def value_of(slot: Any) -> np.ndarray:
            if isinstance(slot, np.ndarray):
                return slot
            entry = decoded.get(id(slot))
            if entry is None:
                entry = decoded[id(slot)] = (slot, codec.value(slot))
            return entry[1]

        dtype = codec.partial_dtype(plan.num_workers)
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
                        np.asarray(
                            np.asarray(vectors[rank])[step.start : step.stop],
                            dtype=dtype,
                        ),
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
                    np.array_split(value_of(source[lane][seg]), step.parts)
                    for lane, seg in step.sources
                ]
                weights[step.grid] = [
                    [counts[lane][seg]] * step.parts for lane, seg in step.sources
                ]
            elif isinstance(step, Unstack):
                source = slots[step.src_grid]
                counts = weights[step.src_grid]
                # Lanes that gathered the same payloads share one join.
                joined: dict[tuple[int, ...], np.ndarray] = {}
                for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                    parts = [value_of(part) for part in source[lane]]
                    key = tuple(map(id, parts))
                    if key not in joined:
                        joined[key] = np.concatenate(parts)
                    slots[step.grid][dst_lane][dst_seg] = joined[key]
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
        held: dict[int, list[np.ndarray]] = {}
        for out in plan.outputs:
            for lane, rank in enumerate(specs[out.grid].lane_ranks):
                held.setdefault(rank, []).extend(
                    value_of(slot) for slot in slots[out.grid][lane]
                )
        # One finish per distinct tuple of output arrays (``held`` keeps
        # them alive, so their ids stay unique).
        finished: dict[tuple[int, ...], np.ndarray] = {}
        results = []
        for rank in range(len(held)):
            key = tuple(map(id, held[rank]))
            result = finished.get(key)
            if result is None:
                result = finished[key] = codec.finish(held[rank])
                result.flags.writeable = False
            results.append(result)
        return results

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
        transients: Sequence[np.ndarray],
        verify_consensus: bool = True,
    ) -> PackedBits:
        specs = {spec.name: spec for spec in plan.grids}
        table = self._table(plan, transients)
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
                    table,
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
        table: Iterator[np.ndarray],
    ) -> None:
        """One fused SendRecv + MergeSign hop, one synchronous step: entry
        ``i`` of a wave takes row ``i`` of the wave's ``B`` matrix."""
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
            draw = next(table)
            for row, entry in enumerate(wave):
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
                    local, draw=draw[row, : local.words.size]
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
        transients: Sequence[np.ndarray],
        verify_consensus: bool = True,
    ) -> PackedBits:
        from repro.allreduce.ring import PackedLaneGrid

        tables = _hops_for(plan)
        table = self._table(plan, transients)
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
                    cluster, tables[pos], grids[step.grid], step, merge, table
                )
                pos += 2
                continue
            elif isinstance(step, Gather):
                self._gather_hop(cluster, tables[pos], grids[step.grid], step)
            else:
                raise TypeError(
                    f"unexpected step {type(step).__name__} in a one-bit plan"
                )
            pos += 1
        return self._collect(plan, grids, verify_consensus)

    def _reduce_hop(
        self,
        cluster: Cluster,
        hop: _Hop,
        grid,
        send: SendRecv,
        merge: MergeSign,
        table: Iterator[np.ndarray],
    ) -> None:
        """One fused hop: batched merges first, then the bulk exchange (its
        byte table is compiled from the pre-merge sizes) — the lockstep
        ordering."""
        metrics = cluster.obs.metrics
        faults = cluster.faults
        flips = faults is not None and faults.flips_active
        for wave in hop.waves:
            src, dst, seg = wave.src, wave.dst, wave.seg
            lengths = grid.lengths[dst, seg]
            received = PackedBitsBatch._trusted(
                grid.words[src, seg], grid.lengths[src, seg]
            )
            local = PackedBitsBatch._trusted(grid.words[dst, seg], lengths)
            if flips:
                # Same per-(tag, link) masks the scalar engine draws; the
                # fancy-indexed gather above copies, so XOR-ing rows here
                # never touches the grid's own storage.
                for row, (src_rank, dst_rank) in enumerate(wave.links):
                    mask = faults.flip_mask(
                        send.tag, src_rank, dst_rank, int(received.lengths[row])
                    )
                    if mask is not None:
                        received.words[row, : mask.words.size] ^= mask.words
            transient = transient_vector_batch(local, draw=next(table))
            if metrics is not None:
                # Same statistic as the scalar path, batched over lanes.
                metrics.counter("marsit.transient_draws").inc(
                    int((received ^ local).popcounts().sum())
                )
                metrics.counter("marsit.merged_bits").inc(int(lengths.sum()))
            # The merge checks received and local lengths agree, so the
            # grid's lengths stand.
            grid.words[dst, seg] = merge_sign_bits_batch(
                received, local, transient
            ).words
        elapsed = cluster.exchange(hop.exchange, tag=send.tag)
        self._charge_hop(cluster, merge, elapsed)

    def _gather_hop(self, cluster: Cluster, hop: _Hop, grid, step: Gather) -> None:
        src, dst, seg = hop.moves
        # Fancy indexing copies, so overlapping src/dst slots are safe.
        moved_words = grid.words[src, seg]
        moved_lengths = grid.lengths[src, seg]
        grid.words[dst, seg] = moved_words
        grid.lengths[dst, seg] = moved_lengths
        cluster.exchange(hop.exchange, tag=step.tag)

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
