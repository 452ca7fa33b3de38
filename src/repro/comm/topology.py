"""Network topologies for multi-hop all-reduce.

A :class:`Topology` is a directed graph over worker ranks ``0..M-1``, held
as its edge list plus successor and predecessor tables.  All-reduce
algorithms query successor/predecessor relations rather than hard-coding
ring arithmetic, so the same reduce code runs over a plain ring, each ring
of a 2D torus, or a star.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Topology",
    "fully_connected_topology",
    "halving_doubling_topology",
    "ring_topology",
    "star_topology",
    "torus_topology",
    "tree_topology",
]


@dataclass
class Topology:
    """A directed communication graph over worker ranks.

    Attributes:
        num_workers: M; the ranks are ``0..M-1``.
        edges: the ``(src, dst)`` links, ordered by source rank, then by
            the order the constructor added each source's successors; an
            edge means worker ``src`` may send directly to worker ``dst``.
            Duplicates collapse onto their first occurrence.
        name: human-readable topology family (``"ring"``, ``"torus"``, ...).
        meta: topology-specific layout data (e.g. torus ``rows``/``cols``).
    """

    num_workers: int
    edges: tuple[tuple[int, int], ...]
    name: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        succ: dict[int, dict[int, None]] = {}
        pred: dict[int, dict[int, None]] = {}
        for src, dst in self.edges:
            succ.setdefault(src, {})[dst] = None
            pred.setdefault(dst, {})[src] = None
        ranks = sorted(set(range(self.num_workers)) | set(succ) | set(pred))
        self.edges = tuple(
            (src, dst) for src in ranks for dst in succ.get(src, ())
        )
        self._succ = {rank: sorted(succ.get(rank, ())) for rank in ranks}
        self._pred = {rank: sorted(pred.get(rank, ())) for rank in ranks}
        self._edge_set = frozenset(self.edges)

    def neighbors_out(self, rank: int) -> list[int]:
        """Ranks this worker may send to, sorted for determinism."""
        return list(self._succ[rank])

    def neighbors_in(self, rank: int) -> list[int]:
        """Ranks this worker may receive from, sorted for determinism."""
        return list(self._pred[rank])

    def successor(self, rank: int) -> int:
        """The unique out-neighbor; only valid for ring-like topologies."""
        out = self._succ[rank]
        if len(out) != 1:
            raise ValueError(
                f"rank {rank} has {len(out)} out-neighbors; "
                "successor() requires exactly one"
            )
        return out[0]

    def predecessor(self, rank: int) -> int:
        """The unique in-neighbor; only valid for ring-like topologies."""
        incoming = self._pred[rank]
        if len(incoming) != 1:
            raise ValueError(
                f"rank {rank} has {len(incoming)} in-neighbors; "
                "predecessor() requires exactly one"
            )
        return incoming[0]

    def has_edge(self, src: int, dst: int) -> bool:
        return (src, dst) in self._edge_set

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        if self.num_workers < 1:
            raise ValueError("topology must contain at least one worker")
        if list(self._succ) != list(range(self.num_workers)):
            raise ValueError("topology nodes must be contiguous ranks 0..M-1")
        # Weak connectivity: a BFS over links taken in either direction.
        reached = [0]
        seen = {0}
        for rank in reached:
            for other in self._succ[rank] + self._pred[rank]:
                if other not in seen:
                    seen.add(other)
                    reached.append(other)
        if len(seen) != self.num_workers:
            raise ValueError("topology must be connected")


def ring_topology(num_workers: int, bidirectional: bool = False) -> Topology:
    """Ring: rank ``i`` sends to ``(i + 1) % M``.

    ``bidirectional=True`` adds the reverse links too (needed by gossip,
    harmless for the all-reduce schedules, which only use forward links).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    edges = []
    for rank in range(num_workers):
        if num_workers > 1:
            edges.append((rank, (rank + 1) % num_workers))
            if bidirectional:
                edges.append(((rank + 1) % num_workers, rank))
    return Topology(
        num_workers, tuple(edges), "ring", {"bidirectional": bidirectional}
    )


def torus_topology(rows: int, cols: int) -> Topology:
    """2D torus: each rank joins a horizontal ring and a vertical ring.

    Rank layout is row-major: rank ``r * cols + c`` sits at grid cell
    ``(r, c)``.  Edges run rightwards along rows and downwards along columns
    (with wraparound), matching the two-phase TAR schedule of Mikami et al.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            rank = r * cols + c
            if cols > 1:
                edges.append((rank, r * cols + (c + 1) % cols))
            if rows > 1:
                edges.append((rank, ((r + 1) % rows) * cols + c))
    return Topology(
        rows * cols, tuple(edges), "torus", {"rows": rows, "cols": cols}
    )


def star_topology(num_workers: int, server: int = 0) -> Topology:
    """Star used by the parameter-server baseline: all leaves <-> server."""
    if num_workers < 2:
        raise ValueError("star topology needs at least a server and a worker")
    if not 0 <= server < num_workers:
        raise ValueError("server rank out of range")
    edges = []
    for rank in range(num_workers):
        if rank != server:
            edges += [(rank, server), (server, rank)]
    return Topology(num_workers, tuple(edges), "star", {"server": server})


def tree_topology(num_workers: int, arity: int = 2) -> Topology:
    """Rooted ``arity``-ary tree with bidirectional parent/child links."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    edges = []
    for rank in range(1, num_workers):
        parent = (rank - 1) // arity
        edges += [(rank, parent), (parent, rank)]
    return Topology(
        num_workers, tuple(edges), "tree", {"arity": arity, "root": 0}
    )


def halving_doubling_topology(num_workers: int) -> Topology:
    """Hypercube links for recursive halving-doubling: ``r <-> r ^ 2^s``.

    Requires a power-of-two worker count; ``meta["order"]`` records the
    hypercube dimension ``log2(M)``.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if num_workers & (num_workers - 1):
        raise ValueError(
            "halving-doubling requires a power-of-two worker count, "
            f"got {num_workers}"
        )
    order = num_workers.bit_length() - 1
    edges = tuple(
        (rank, rank ^ (1 << step))
        for rank in range(num_workers)
        for step in range(order)
    )
    return Topology(num_workers, edges, "halving_doubling", {"order": order})


def fully_connected_topology(num_workers: int) -> Topology:
    """Complete digraph; used by gossip and by PS-style direct exchange."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    edges = tuple(
        (src, dst)
        for src in range(num_workers)
        for dst in range(num_workers)
        if src != dst
    )
    return Topology(num_workers, edges, "full")
