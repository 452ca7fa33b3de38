"""Wire codecs, and the sum collectives that run them over a SyncPlan.

A sum collective runs its topology's one-bit schedule re-typed as a sum
(:func:`~repro.sched.plan.as_sum_plan`), parameterized by a codec that
turns a partial sum over ``contributors`` workers into a wire payload.
:class:`FloatCodec` is the full-precision baseline (PSGD): ``wire_dtype``
arrays, accumulated in that dtype.  :class:`SignSumCodec` is the
MAR-extended sign baselines (signSGD, EF, SSDM): integer sign sums, held in
the narrowest signed dtype that fits ``-M..M`` and charged
``ceil(log2(m + 1)) + 1`` bits per element over ``m`` contributors (Section
3.1's bit-length expansion), or the exact Elias-gamma size.
:func:`allreduce_sum` reads the family from the cluster's topology,
compiles the plan once per (topology, M, D, op) and runs it.  Every
compiled topology registers the same two collectives built on it:
:func:`allreduce_mean` (FP32 sums, the mean formed in one place,
:func:`mean_of`) and :func:`signsum_allreduce`.

Every worker of a sum all-reduce holds the same aggregate, so results are
shared: a collective returns one read-only array per distinct output (one
for a ring, torus, tree, butterfly or star; one per ring of parallel
rings), repeated for the ranks that hold it.  Copy an entry before
modifying it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

import numpy as np

from repro.comm.bits import elias_gamma_bits, signed_int_bit_width, zigzag_encode
from repro.comm.cluster import Cluster, SizedPayload
from repro.comm.timing import Phase
from repro.comm.topology import Topology
from repro.sched.plan import CompileContext, ReduceOp, SyncPlan, as_sum_plan

__all__ = [
    "SIGN_SUM",
    "FloatCodec",
    "SignSumCodec",
    "allreduce_mean",
    "allreduce_sum",
    "checked_signs",
    "elias_sum_bits",
    "map_distinct",
    "mean_of",
    "signsum_allreduce",
    "sum_plan",
]


class _Codec:
    """Shared codec steps.  Partial sums are ``partial_dtype`` arrays, sent
    as the payload ``encode`` makes of them; ``dtype`` is the result dtype."""

    wire_dtype: np.dtype
    dtype: np.dtype

    @property
    def op(self) -> ReduceOp:
        """The reduce op a sum plan under this codec carries."""
        return ReduceOp(kind="sum", codec=self.name)

    def partial_dtype(self, num_workers: int) -> np.dtype:
        """The dtype partial sums over up to ``num_workers`` workers use."""
        return self.wire_dtype

    def encode(self, values: Any, contributors: int, rank: int = 0) -> Any:
        """The payload worker ``rank`` sends for a partial sum over
        ``contributors`` workers."""
        return values

    def value(self, payload: Any) -> np.ndarray:
        return payload

    def finish(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """One worker's reduced segments, concatenated in the result dtype."""
        return np.concatenate([np.asarray(v, dtype=self.dtype) for v in values])

    def single(self, vector: Any) -> np.ndarray:
        """The one-worker result: nothing goes on the wire."""
        return np.asarray(vector, dtype=self.dtype).copy()


@dataclass(frozen=True)
class FloatCodec(_Codec):
    """Floats on the wire as ``wire_dtype``, accumulated in that dtype."""

    wire_dtype: np.dtype = np.dtype(np.float32)
    dtype = np.dtype(np.float64)

    @property
    def name(self) -> str:
        return np.dtype(self.wire_dtype).name


@dataclass(frozen=True)
class SignSumCodec(_Codec):
    """Integer partial sign sums with bit-length expansion.

    Partial sums live in the narrowest signed integer dtype that holds
    ``-M..M`` (``int8`` up to M = 127); the charged size depends only on
    the contributors and the element count, and :meth:`finish` widens the
    result to ``int64``.  ``elias_coded`` charges each hop the exact
    Elias-gamma code of its zigzagged partial sums (the Section 5 "Elias
    coding" baseline) instead of the fixed width: shorter on average, still
    above one bit per element.
    """

    elias_coded: bool = False
    dtype = np.dtype(np.int64)

    @property
    def name(self) -> str:
        return "signsum-elias" if self.elias_coded else "signsum"

    def partial_dtype(self, num_workers: int) -> np.dtype:
        for candidate in (np.int8, np.int16, np.int32):
            if num_workers <= np.iinfo(candidate).max:
                return np.dtype(candidate)
        return np.dtype(np.int64)

    def encode(
        self, values: Any, contributors: int, rank: int = 0
    ) -> SizedPayload:
        values = np.asarray(values)
        if self.elias_coded:
            nbytes = (elias_sum_bits(values, contributors) + 7) // 8
        else:
            bits = signed_int_bit_width(contributors)
            nbytes = (bits * int(values.size) + 7) // 8
        return SizedPayload(value=values, nbytes=nbytes)

    def value(self, payload: SizedPayload) -> np.ndarray:
        return payload.value


def elias_sum_bits(sums: Any, contributors: int) -> int:
    """Exact Elias-gamma bits of partial sign sums over ``contributors``.

    A sum of ``m`` iid signs lives on ``{-m, -m+2, ..., m}`` with a binomial
    peak at 0; re-indexing by half-steps from the mode and zigzagging gives
    the common values the short gamma codes.
    """
    sums = np.asarray(sums, dtype=np.int64)
    half_steps = (sums + contributors) // 2 - contributors // 2
    return elias_gamma_bits(zigzag_encode(half_steps))


WireCodec = Union[FloatCodec, SignSumCodec]
SIGN_SUM = SignSumCodec()


def map_distinct(
    make: Callable[[Any], np.ndarray], items: Sequence[Any]
) -> list[np.ndarray]:
    """``make(item)`` once per distinct object in ``items``, marked
    read-only and repeated wherever that object appears."""
    made: dict[int, np.ndarray] = {}
    results = []
    for item in items:
        result = made.get(id(item))
        if result is None:
            result = made[id(item)] = make(item)
            result.flags.writeable = False
        results.append(result)
    return results


def mean_of(sums: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-worker FP means from per-worker sums: each distinct sum times
    ``1 / M`` once, shared read-only by the ranks that hold it."""
    scale = 1.0 / len(sums)
    return map_distinct(lambda total: total * scale, sums)


def checked_signs(
    cluster: Cluster, sign_vectors: list[np.ndarray], charge_compression: bool
) -> list[np.ndarray]:
    """Every sign-sum collective's prologue: check ``{-1, +1}``, charge time."""
    for vector in sign_vectors:
        array = np.asarray(vector)
        if array.size and not ((array == -1) | (array == 1)).all():
            raise ValueError("sign vectors must be over {-1, +1}")
    if charge_compression:
        total = sum(int(np.asarray(v).size) for v in sign_vectors)
        cluster.charge(Phase.COMPRESSION, cluster.cost_model.compress_time(total))
    return sign_vectors


def _tag_prefix(family: str, op: ReduceOp) -> str:
    """Message-tag prefix of a sum plan's hops (one-bit hops use ``m-``).

    Fault decisions are keyed by tag; the torus keeps TAR's ``tar-`` (FP)
    and ``ss-`` (sign sum) tags, and cascading its ``casc-``.
    """
    if op.kind == "cascade":
        return "casc-"
    if family == "torus":
        return "ss-" if op.codec.startswith("signsum") else "tar-"
    return ""


@functools.lru_cache(maxsize=256)
def _compiled(
    family: str,
    meta: tuple,
    num_workers: int,
    dimension: int,
    op: ReduceOp,
    segment_elems: int | None,
) -> SyncPlan:
    from repro.allreduce import get_topology

    compiler = get_topology(family).compile_one_bit
    if compiler is None:
        raise ValueError(f"topology {family!r} has no SyncPlan compiler")
    context = CompileContext(
        num_workers=num_workers,
        dimension=dimension,
        meta=dict(meta),
        segment_elems=segment_elems,
    )
    plan = as_sum_plan(compiler(context), op, _tag_prefix(family, op))
    plan.validate()
    return plan


def sum_plan(
    topology: Topology,
    dimension: int,
    op: ReduceOp,
    segment_elems: int | None = None,
) -> SyncPlan:
    """``topology``'s schedule as a sum plan of ``op``, compiled once.

    The family's registered compiler builds the schedule; plans are cached
    per (family, meta, M, D, op, segment size).
    """
    return _compiled(
        topology.name,
        tuple(sorted(topology.meta.items())),
        topology.num_workers,
        dimension,
        op,
        segment_elems,
    )


def allreduce_sum(
    cluster: Cluster,
    vectors: Sequence[np.ndarray],
    codec: Any,
    segment_elems: int | None = None,
) -> list[np.ndarray]:
    """Per-worker sums of ``vectors`` over the cluster topology's schedule
    under ``codec``: one read-only ``codec.finish`` per distinct output,
    shared by the ranks that hold it."""
    from repro.sched import get_executor

    num = cluster.num_workers
    if len(vectors) != num:
        raise ValueError(f"expected {num} vectors, got {len(vectors)}")
    sizes = {int(np.asarray(vector).size) for vector in vectors}
    if len(sizes) > 1:
        raise ValueError("all vectors must share one dimension")
    if num == 1:
        return [codec.single(vectors[0])]
    plan = sum_plan(cluster.topology, sizes.pop(), codec.op, segment_elems)
    return get_executor("scalar").run_sum(plan, cluster, vectors, codec)


def allreduce_mean(
    cluster: Cluster, vectors: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Per-worker FP means: FP32 sums over the cluster topology's schedule
    (the paper's non-compressed baseline), times ``1 / M``."""
    return mean_of(allreduce_sum(cluster, vectors, FloatCodec()))


def signsum_allreduce(
    cluster: Cluster,
    sign_vectors: list[np.ndarray],
    charge_compression: bool = True,
) -> list[np.ndarray]:
    """Integer sums of ``{-1, +1}`` vectors with bit-length expansion.

    The MAR-extended sign baselines of Section 3.1: a hop carrying a partial
    sum over ``m`` workers is charged ``ceil(log2(m + 1)) + 1`` bits per
    element, so hops grow to ``~log2(M)`` bits and never shrink back to one.
    ``charge_compression`` charges sign extraction to the timeline.  Returns
    the per-worker ``int64`` sums (all equal).
    """
    signs = checked_signs(cluster, sign_vectors, charge_compression)
    return allreduce_sum(cluster, signs, SIGN_SUM)
