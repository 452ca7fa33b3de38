"""All-reduce algorithms over the simulated cluster, plus the topology registry.

Each topology family writes its hop schedule once, as a
:class:`~repro.sched.plan.SyncPlan` compiler.  Marsit's one-bit round runs
the compiled plan; the sum collectives run it with its reduce hops re-typed
under a wire codec (:mod:`repro.allreduce.codec`): FP32 arrays for the
full-precision baseline, integer sign sums whose width grows with the
number of contributors for the MAR-extended sign baselines, and cascading
compression's decompress-add-recompress.  Ring and torus share the cycle
phases: a ring is the one-row torus.  The star (parameter server), gossip
and the scalar all-gathers stay hand-written.

Higher-level collectives: 2D-torus all-reduce, parameter-server emulation,
tree all-reduce, segmented ring, recursive halving-doubling, cascading
compression, and gossip averaging.

The :class:`TopologyEntry` registry is the single place a topology plugs in
its graph builder, its one-bit :class:`~repro.sched.plan.SyncPlan` compiler,
and its mean, sign-sum and scalar all-gather collectives.  Everything
downstream — Marsit's synchronizer, the training strategies, the trainer's
cluster factory — looks topologies up here instead of switching on names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.allreduce.cascading import cascading_ring_allreduce
from repro.allreduce.gossip import gossip_average_round, gossip_mixing_matrix
from repro.allreduce.halving_doubling import (
    compile_halving_doubling,
    halving_doubling_allreduce_mean,
    halving_doubling_allreduce_sum,
    signsum_halving_doubling_allreduce,
)
from repro.allreduce.ps import (
    ps_allreduce,
    signsum_star_allreduce,
    star_allgather_scalars,
    star_allreduce_mean,
)
from repro.allreduce.ring import (
    PackedLaneGrid,
    SizedPayload,
    compile_ring,
    ring_allgather_scalars,
    ring_allreduce_mean,
    ring_allreduce_sum,
    signsum_ring_allreduce,
    split_segments,
)
from repro.allreduce.segmented import (
    compile_segmented_ring,
    segmented_ring_allreduce,
)
from repro.allreduce.torus import (
    compile_torus,
    signsum_torus_allreduce,
    torus_allgather_scalars,
    torus_allreduce_mean,
    torus_allreduce_sum,
)
from repro.allreduce.tree import (
    compile_tree,
    signsum_tree_allreduce,
    tree_allreduce_mean,
)
from repro.comm.topology import (
    Topology,
    halving_doubling_topology,
    ring_topology,
    star_topology,
    torus_topology,
    tree_topology,
)

__all__ = [
    "PackedLaneGrid",
    "SizedPayload",
    "TopologyEntry",
    "cascading_ring_allreduce",
    "compile_halving_doubling",
    "compile_ring",
    "compile_segmented_ring",
    "compile_torus",
    "compile_tree",
    "get_topology",
    "gossip_average_round",
    "gossip_mixing_matrix",
    "halving_doubling_allreduce_mean",
    "halving_doubling_allreduce_sum",
    "one_bit_topology_names",
    "ps_allreduce",
    "register_topology",
    "ring_allgather_scalars",
    "ring_allreduce_mean",
    "ring_allreduce_sum",
    "segmented_ring_allreduce",
    "signsum_halving_doubling_allreduce",
    "signsum_ring_allreduce",
    "signsum_star_allreduce",
    "signsum_torus_allreduce",
    "signsum_tree_allreduce",
    "split_segments",
    "star_allgather_scalars",
    "star_allreduce_mean",
    "topology_names",
    "torus_allgather_scalars",
    "torus_allreduce_mean",
    "torus_allreduce_sum",
    "tree_allreduce_mean",
]


@dataclass(frozen=True, kw_only=True)
class TopologyEntry:
    """Everything one topology family plugs into the framework.

    Attributes:
        name: registry key; also the :class:`Topology` family name.
        build: ``build(num_workers, **kwargs) -> Topology`` graph factory.
        compile_one_bit: SyncPlan compiler for the Marsit one-bit round, or
            ``None`` if the topology has no one-bit schedule (e.g. star).
        mean_allreduce: full-precision ``(cluster, vectors) -> vectors`` mean.
        signsum_allreduce: ``(cluster, sign_vectors) -> vectors`` integer
            sign sum with bit-length expansion.
        allgather_scalars: ``(cluster, values) -> np.ndarray`` one-float
            all-gather, or ``None`` if the topology has none; the schemes
            that need one (EF-signSGD, norm-scaled SSDM) then raise.
        degrade: ``(num_survivors, meta) -> Topology | None`` crash-recovery
            rebuild at a smaller size.  Returning ``None`` (or omitting the
            hook) means the family cannot shrink to that size and recovery
            falls back to a ring (:mod:`repro.faults.recovery`).
    """

    name: str
    build: Callable[..., Topology]
    compile_one_bit: Callable | None = None
    mean_allreduce: Callable
    signsum_allreduce: Callable
    allgather_scalars: Callable | None = None
    degrade: Callable[[int, dict], Topology | None] | None = None


_REGISTRY: dict[str, TopologyEntry] = {}


def register_topology(entry: TopologyEntry) -> TopologyEntry:
    """Register (or replace) a topology family under ``entry.name``."""
    _REGISTRY[entry.name] = entry
    return entry


def topology_names() -> tuple[str, ...]:
    """Sorted names of all registered topology families."""
    return tuple(sorted(_REGISTRY))


def one_bit_topology_names() -> tuple[str, ...]:
    """Sorted names of topologies with a one-bit SyncPlan compiler."""
    return tuple(
        sorted(n for n, e in _REGISTRY.items() if e.compile_one_bit is not None)
    )


def get_topology(name: str) -> TopologyEntry:
    """Look up a registered topology; error lists the registered names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; registered topologies: "
            f"{', '.join(topology_names())}"
        ) from None


def _build_torus(num_workers: int, rows: int, cols: int) -> Topology:
    if rows * cols != num_workers:
        raise ValueError(
            f"torus shape {rows}x{cols} does not cover {num_workers} workers"
        )
    return torus_topology(rows, cols)


def _degrade_ring(num_survivors: int, meta: dict) -> Topology:
    # A ring exists at every size; survivors close ranks and keep the shape.
    return ring_topology(num_survivors)


def _degrade_tree(num_survivors: int, meta: dict) -> Topology:
    # Trees rebuild at any size with the same arity.
    return tree_topology(num_survivors, arity=meta.get("arity", 2))


def _degrade_halving_doubling(num_survivors: int, meta: dict) -> Topology | None:
    # The butterfly exists only at powers of two; otherwise fall back (ring).
    if num_survivors & (num_survivors - 1) == 0:
        return halving_doubling_topology(num_survivors)
    return None


register_topology(
    TopologyEntry(
        name="ring",
        build=ring_topology,
        compile_one_bit=compile_ring,
        mean_allreduce=ring_allreduce_mean,
        signsum_allreduce=signsum_ring_allreduce,
        allgather_scalars=ring_allgather_scalars,
        degrade=_degrade_ring,
    )
)
register_topology(
    TopologyEntry(
        name="torus",
        build=_build_torus,
        compile_one_bit=compile_torus,
        mean_allreduce=torus_allreduce_mean,
        signsum_allreduce=signsum_torus_allreduce,
        allgather_scalars=torus_allgather_scalars,
        # No degrade hook: a torus minus one node is not a torus — survivors
        # reform as a ring.
    )
)
register_topology(
    TopologyEntry(
        name="star",
        build=star_topology,
        mean_allreduce=star_allreduce_mean,
        signsum_allreduce=signsum_star_allreduce,
        allgather_scalars=star_allgather_scalars,
    )
)
register_topology(
    TopologyEntry(
        name="tree",
        build=tree_topology,
        compile_one_bit=compile_tree,
        mean_allreduce=tree_allreduce_mean,
        signsum_allreduce=signsum_tree_allreduce,
        degrade=_degrade_tree,
    )
)
register_topology(
    TopologyEntry(
        name="halving_doubling",
        build=halving_doubling_topology,
        compile_one_bit=compile_halving_doubling,
        mean_allreduce=halving_doubling_allreduce_mean,
        signsum_allreduce=signsum_halving_doubling_allreduce,
        degrade=_degrade_halving_doubling,
    )
)
