"""The SyncPlan IR: a declarative schedule for one synchronization round.

A :class:`SyncPlan` is a flat, ordered list of *steps* over named *grids*.
A grid is a (lane, segment) matrix of vector segments — the same shape
:class:`~repro.allreduce.ring.PackedLaneGrid` materializes for packed sign
bits — annotated with which cluster rank owns each lane.  Per-topology
**compilers** (living next to their topologies in :mod:`repro.allreduce`)
lower a topology into a plan once; exactly two **executors**
(:mod:`repro.sched.executor`) interpret any plan, so adding a topology
never touches executor code.

One schedule serves every collective.  A compiler emits the one-bit round;
:func:`as_sum_plan` re-types its reduce hops with another
:class:`ReduceOp` — a sum under a named wire codec (the FP32 mean, the
integer sign sum) or cascading's decompress-add-recompress — so each
topology's hop schedule is written once.  The merge weights are the
contributor counts a sum's codec sizes its payloads by.

Steps
-----
``Pack``
    Take each lane's slice ``matrix[rank, start:stop]`` into
    ``num_segments`` segments (``numpy.array_split`` boundaries).
``Restack`` / ``Unstack``
    Re-shard data between grids (e.g. the torus row phase's owned segment
    re-split across the column grid, and back).
``SendRecv`` + ``MergeSign``
    One reduce hop: every transfer's payload crosses the wire inside one
    synchronous step, then each receiver folds the received copy into its
    own with the hop's ``reduce`` op: Algorithm 1's ``⊙`` by default
    (transient tie-break drawn from the *receiving* rank's rng stream), or
    a sum.  A ``SendRecv`` is always immediately followed by its
    ``MergeSign``; executors fuse the pair into a single accounted step.
    Merges are grouped into *waves*: within a wave every destination lane
    is unique, and waves execute in order, which pins the per-rank rng
    draw order so both executors consume identical stream prefixes.
``Gather``
    One all-gather/broadcast hop: payloads move, nothing is merged.
``Barrier``
    Opens or closes a tracing phase span (``reduce-scatter`` etc.) and
    optionally charges the up-front pack/compress cost inside it.

A step's transfers that share a link travel as one message, sized as the
sum of their segments.

The IR is data, not code: plans serialize to canonical JSON (stable key
order, no floats) and hash to a 12-hex-digit digest used for golden
snapshot tests and run reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Union

__all__ = [
    "Barrier",
    "CompileContext",
    "Gather",
    "GridSpec",
    "MERGE_SIGN",
    "Merge",
    "MergeSign",
    "Output",
    "Pack",
    "ReduceOp",
    "Restack",
    "SendRecv",
    "Step",
    "SyncPlan",
    "Transfer",
    "Unstack",
    "as_sum_plan",
    "plan_segment_lengths",
]


def plan_segment_lengths(total: int, parts: int) -> list[int]:
    """Segment lengths produced by ``numpy.array_split(range(total), parts)``.

    Pure-integer twin of the split the executors perform, so compilers can
    reason about segment sizes without touching numpy.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


@dataclass(frozen=True)
class CompileContext:
    """Everything a topology compiler may depend on.

    ``meta`` carries the topology's own annotations (torus ``rows``/``cols``,
    tree ``arity``/``root``, halving-doubling ``order``); ``segment_elems``
    is Marsit's optional pipelining chunk size (ring only).
    """

    num_workers: int
    dimension: int
    meta: Mapping[str, Any] = field(default_factory=dict)
    segment_elems: int | None = None


@dataclass(frozen=True)
class GridSpec:
    """A named (lane, segment) matrix of vector segments (packed signs in a
    one-bit plan, partial sums in a sum plan).

    ``lane_ranks[lane]`` is the cluster rank that owns the lane — the rank
    whose rng stream pays for merges into it and whose mailbox receives its
    transfers.
    """

    name: str
    lane_ranks: tuple[int, ...]
    num_segments: int


@dataclass(frozen=True)
class Transfer:
    """Move segment ``seg`` of ``src_lane`` to the same slot of ``dst_lane``."""

    src_lane: int
    dst_lane: int
    seg: int


@dataclass(frozen=True)
class Merge:
    """One ``⊙`` application: fold the received copy of ``seg`` into
    ``dst_lane``'s local copy with the given vote weights (in a sum plan,
    the workers each copy covers)."""

    dst_lane: int
    src_lane: int
    seg: int
    received_weight: int
    local_weight: int


@dataclass(frozen=True)
class ReduceOp:
    """What a reduce hop computes from a received segment and its own.

    ``kind`` is ``"merge_sign"`` (Algorithm 1's ``⊙`` on packed sign bits),
    ``"sum"`` (add the partial sums; ``codec`` names the wire codec of
    :mod:`repro.allreduce.codec` that sizes them) or ``"cascade"``
    (decompress, add, recompress: Section 3.2's cascading compression).
    """

    kind: str = "merge_sign"
    codec: str = ""


#: The one-bit reduce op; hops that carry it serialize no ``reduce`` key,
#: so one-bit plans keep their digests.
MERGE_SIGN = ReduceOp()


@dataclass(frozen=True)
class Pack:
    """Take ``matrix[rank, start:stop]`` into the grid, one lane per entry
    of the grid's ``lane_ranks`` (one-bit plans pack its signs)."""

    grid: str
    start: int
    stop: int


@dataclass(frozen=True)
class Restack:
    """Build ``grid`` by re-splitting one source segment per destination lane.

    ``sources[lane]`` names the ``(src_lane, src_seg)`` of ``src_grid``
    whose payload becomes destination lane ``lane``, split into ``parts``
    segments (``parts`` equals the destination grid's ``num_segments``).
    """

    grid: str
    src_grid: str
    sources: tuple[tuple[int, int], ...]
    parts: int


@dataclass(frozen=True)
class Unstack:
    """Concatenate each source lane's segments back into one destination slot.

    ``targets[lane]`` is the ``(dst_lane, dst_seg)`` of ``grid`` that
    receives the concatenation of ``src_grid``'s lane ``lane``.
    """

    grid: str
    src_grid: str
    targets: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SendRecv:
    """The wire half of a reduce hop (always followed by a MergeSign)."""

    grid: str
    tag: str
    transfers: tuple[Transfer, ...]


@dataclass(frozen=True)
class MergeSign:
    """The compute half of a reduce hop.

    ``waves`` fix the merge (and therefore rng-draw) order; the ``*_elems``
    fields parameterize the cost model charges for a fused one-bit hop:
    ``compress_elems`` (``None`` when packing was pre-charged by the phase
    barrier), ``rng_elems`` transient draws, ``bitop_elems`` merge bit-ops.
    ``reduce`` is what each merge computes; a sum's merged partial covers
    ``received_weight + local_weight`` workers.
    """

    grid: str
    waves: tuple[tuple[Merge, ...], ...]
    compress_elems: int | None
    rng_elems: int
    bitop_elems: int
    reduce: ReduceOp = MERGE_SIGN


@dataclass(frozen=True)
class Gather:
    """One broadcast/all-gather hop: transfers land verbatim, no merge."""

    grid: str
    tag: str
    transfers: tuple[Transfer, ...]


@dataclass(frozen=True)
class Barrier:
    """Open (``kind="begin"``) or close (``kind="end"``) a phase span.

    ``compress_elems`` on a begin barrier charges the up-front sign-packing
    cost inside the freshly opened span.
    """

    kind: str
    span: str = ""
    tag: str | None = None
    compress_elems: int | None = None


@dataclass(frozen=True)
class Output:
    """One grid whose lane contents are the round's result (and must agree
    across lanes — ``where`` labels the consensus-violation error)."""

    grid: str
    where: str


Step = Union[Pack, Restack, Unstack, SendRecv, MergeSign, Gather, Barrier]


@dataclass(frozen=True)
class SyncPlan:
    """A compiled synchronization round.

    ``kind`` is ``"one_bit"`` or ``"sum"`` (:func:`as_sum_plan`);
    ``outputs`` lists the grids (in concatenation order) holding the
    agreed result.
    """

    kind: str
    topology: str
    num_workers: int
    dimension: int
    grids: tuple[GridSpec, ...]
    steps: tuple[Step, ...]
    outputs: tuple[Output, ...] = ()
    #: optional ``(key, value)`` string pairs recording how the plan came to
    #: be (e.g. crash recovery notes its original family and survivor set).
    #: Serialized — and therefore digested — only when non-empty, so plans
    #: without provenance keep their historical digests.
    provenance: tuple[tuple[str, str], ...] = ()

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def grid(self, name: str) -> GridSpec:
        for spec in self.grids:
            if spec.name == name:
                return spec
        raise KeyError(f"plan has no grid named {name!r}")

    def to_json_dict(self) -> dict[str, Any]:
        """Canonical pure-JSON form (every step tagged with its ``op``)."""
        steps = []
        for step in self.steps:
            entry: dict[str, Any] = {"op": type(step).__name__}
            entry.update(asdict(step))
            if entry.get("reduce") == asdict(MERGE_SIGN):
                del entry["reduce"]
            steps.append(entry)
        document = {
            "kind": self.kind,
            "topology": self.topology,
            "num_workers": self.num_workers,
            "dimension": self.dimension,
            "grids": [asdict(spec) for spec in self.grids],
            "steps": steps,
            "outputs": [asdict(out) for out in self.outputs],
        }
        if self.provenance:
            document["provenance"] = [list(pair) for pair in self.provenance]
        return document

    def to_json(self) -> str:
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """12-hex-digit content hash of the canonical JSON form."""
        return hashlib.sha256(self.to_json().encode("ascii")).hexdigest()[:12]

    def validate(self) -> None:
        """Structural invariants every well-formed plan satisfies."""
        names = [spec.name for spec in self.grids]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate grid names in plan: {names}")
        specs = {spec.name: spec for spec in self.grids}
        for pos, step in enumerate(self.steps):
            grid_name = getattr(step, "grid", None)
            if grid_name is not None and grid_name not in specs:
                raise ValueError(
                    f"step {pos} ({type(step).__name__}) references unknown "
                    f"grid {grid_name!r}"
                )
            if isinstance(step, SendRecv):
                follower = (
                    self.steps[pos + 1] if pos + 1 < len(self.steps) else None
                )
                if not isinstance(follower, MergeSign):
                    raise ValueError(
                        f"SendRecv at step {pos} is not followed by a "
                        "MergeSign — executors fuse the pair"
                    )
                if follower.grid != step.grid:
                    raise ValueError(
                        f"SendRecv/MergeSign pair at step {pos} straddles "
                        f"grids {step.grid!r} and {follower.grid!r}"
                    )
            if isinstance(step, MergeSign):
                for wave in step.waves:
                    dsts = [merge.dst_lane for merge in wave]
                    if len(set(dsts)) != len(dsts):
                        raise ValueError(
                            f"MergeSign at step {pos} has a wave with "
                            "duplicate destination lanes"
                        )
        for out in self.outputs:
            if out.grid not in specs:
                raise ValueError(f"output references unknown grid {out.grid!r}")


def as_sum_plan(plan: SyncPlan, op: ReduceOp, tag_prefix: str) -> SyncPlan:
    """``plan``'s schedule with every reduce hop re-typed as ``op``.

    Grids, transfers, waves and merge weights stay as compiled.  Hop and
    phase tags trade the one-bit ``m-`` prefix for ``tag_prefix``, and the
    phase barriers charge no sign pack: a sum plan costs its wire time.
    """

    def retag(tag: str | None) -> str | None:
        return None if tag is None else tag_prefix + tag.removeprefix("m-")

    steps: list[Step] = []
    for step in plan.steps:
        if isinstance(step, (SendRecv, Gather)):
            step = replace(step, tag=retag(step.tag))
        elif isinstance(step, MergeSign):
            step = replace(step, reduce=op)
        elif isinstance(step, Barrier):
            step = replace(step, tag=retag(step.tag), compress_elems=None)
        steps.append(step)
    return replace(plan, kind="sum", steps=tuple(steps))
