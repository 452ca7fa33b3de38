"""Gossip averaging — the decentralized baseline of the paper's intro.

Workers average only with their topology neighbors each round using a
doubly-stochastic mixing matrix (Metropolis-Hastings weights).  Consensus is
reached asymptotically at a rate set by the spectral gap; under a sparse ring
that gap is O(1/M^2), which is the "much slower than MAR" behaviour the
introduction cites (refs [8-10]).
"""

from __future__ import annotations

import numpy as np

from repro.comm.cluster import Cluster

__all__ = ["gossip_average_round", "gossip_mixing_matrix"]


def _require_symmetric(cluster: Cluster) -> None:
    topology = cluster.topology
    for u, v in topology.edges:
        if not topology.has_edge(v, u):
            raise ValueError(
                "gossip requires a symmetric topology (every link "
                f"bidirectional); missing reverse of {u} -> {v}.  Use "
                "ring_topology(M, bidirectional=True) or "
                "fully_connected_topology."
            )


def gossip_mixing_matrix(cluster: Cluster) -> np.ndarray:
    """Metropolis-Hastings doubly-stochastic weights for the topology.

    ``W[i, j] = 1 / (1 + max(deg_i, deg_j))`` for undirected neighbor pairs,
    diagonal set so rows sum to one.  Symmetric, hence doubly stochastic.
    Requires a symmetric topology — mass conservation breaks if a worker can
    send to a neighbor it cannot hear from.
    """
    _require_symmetric(cluster)
    num = cluster.num_workers
    undirected = {
        frozenset((u, v)) for u, v in cluster.topology.edges if u != v
    }
    degree = [0] * num
    for pair in undirected:
        u, v = tuple(pair)
        degree[u] += 1
        degree[v] += 1
    weights = np.zeros((num, num))
    for pair in undirected:
        u, v = tuple(pair)
        weights[u, v] = weights[v, u] = 1.0 / (1.0 + max(degree[u], degree[v]))
    for rank in range(num):
        weights[rank, rank] = 1.0 - weights[rank].sum()
    return weights


def gossip_average_round(
    cluster: Cluster,
    vectors: list[np.ndarray],
    mixing: np.ndarray | None = None,
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """One synchronous gossip round: exchange with neighbors, mix.

    Every undirected neighbor pair exchanges vectors in a single step, then
    each worker forms its mixing-weighted average.  Returns the new
    per-worker vectors (not yet at consensus).
    """
    _require_symmetric(cluster)
    num = cluster.num_workers
    if len(vectors) != num:
        raise ValueError(f"expected {num} vectors, got {len(vectors)}")
    if mixing is None:
        mixing = gossip_mixing_matrix(cluster)
    arrays = [np.asarray(vector, dtype=np.float64) for vector in vectors]

    cluster.begin_step()
    for src in range(num):
        for dst in cluster.topology.neighbors_out(src):
            cluster.send(src, dst, np.asarray(arrays[src], dtype=wire_dtype), tag="gossip")
    received: dict[tuple[int, int], np.ndarray] = {}
    for dst in range(num):
        for src in cluster.topology.neighbors_in(dst):
            received[(dst, src)] = np.asarray(
                cluster.recv(dst, src, tag="gossip"), dtype=np.float64
            )
    cluster.end_step()

    mixed = []
    for rank in range(num):
        total = mixing[rank, rank] * arrays[rank]
        for src in cluster.topology.neighbors_in(rank):
            total = total + mixing[rank, src] * received[(rank, src)]
        mixed.append(total)
    return mixed
