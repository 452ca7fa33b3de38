"""Parameter-server aggregation over a star topology.

Every worker sends its payload to the server, the server aggregates with a
pluggable rule (mean for PSGD, majority vote for signSGD, mean-of-decoded for
SSDM/EF), and broadcasts the result.  The server link is the congestion
point: all ``M - 1`` uploads share the server's ingress, so the step time is
charged *serially* per upload — this is the ``2 x M x D`` cost of Section 3.1
and why Figure 1a shows non-compressed PS slower than RAR.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.allreduce.codec import SIGN_SUM, WireCodec, checked_signs, map_distinct
from repro.comm.cluster import Cluster

__all__ = [
    "ps_allreduce",
    "signsum_star_allreduce",
    "star_allgather_scalars",
    "star_allreduce_mean",
]

Aggregate = Callable[[Sequence[Any]], Any]
"""Combine the per-worker payloads (server's own first) into one result."""


def ps_allreduce(
    cluster: Cluster,
    payloads: list[Any],
    aggregate: Aggregate,
    decode: Callable[[Any], Any] | None = None,
    concurrent_uploads: bool = False,
) -> list[Any]:
    """One PS round: gather to the server, aggregate, broadcast.

    Args:
        cluster: must use a star topology (``star_topology``).
        payloads: per-worker wire payloads (index = rank).
        aggregate: server-side reduction over decoded worker values.
        decode: optional payload -> value transform applied before
            aggregation (e.g. ``Payload.decode``); identity when ``None``.
        concurrent_uploads: when False (default), uploads are charged as
            sequential steps — a server whose single NIC is the ingress
            bottleneck.  When True, all uploads share one step — a cloud
            switch fabric where the server's ingress matches the sum of the
            worker links (the paper's Huawei-cloud setting, where PS-fp32 is
            only modestly slower than RAR in Figure 1a).

    Returns:
        The broadcast aggregate, replicated per worker.

    The broadcast is charged as one step (multicast / pipelined egress).
    """
    meta = cluster.topology.meta
    if cluster.topology.name != "star" or "server" not in meta:
        raise ValueError("ps_allreduce requires a star topology")
    server = meta["server"]
    num = cluster.num_workers
    if len(payloads) != num:
        raise ValueError(f"expected {num} payloads, got {len(payloads)}")

    received: list[Any] = [payloads[server]]
    if concurrent_uploads:
        cluster.begin_step()
        for rank in range(num):
            if rank != server:
                cluster.send(rank, server, payloads[rank], tag="up")
        cluster.end_step()
        for rank in range(num):
            if rank != server:
                received.append(cluster.recv(server, rank, tag="up"))
    else:
        for rank in range(num):
            if rank == server:
                continue
            cluster.begin_step()
            cluster.send(rank, server, payloads[rank], tag="up")
            cluster.end_step()
            received.append(cluster.recv(server, rank, tag="up"))

    if decode is not None:
        received = [decode(item) for item in received]
    result = aggregate(received)

    cluster.begin_step()
    for rank in range(num):
        if rank != server:
            cluster.send(server, rank, result, tag="down")
    cluster.end_step()
    results = []
    for rank in range(num):
        if rank == server:
            results.append(result)
        else:
            results.append(cluster.recv(rank, server, tag="down"))
    return results


def star_allreduce_mean(
    cluster: Cluster, vectors: list[np.ndarray]
) -> list[np.ndarray]:
    """Full-precision mean over the star: FP32 uploads, server mean."""
    mean = ps_allreduce(
        cluster,
        [np.asarray(v, dtype=np.float32) for v in vectors],
        aggregate=lambda xs: np.mean(xs, axis=0),
    )
    return map_distinct(lambda m: np.asarray(m, dtype=np.float64), mean)


def _star_sum(cluster: Cluster, vectors: list, codec: WireCodec) -> list:
    """Sum through the server; the broadcast covers all ``M`` workers."""
    num = cluster.num_workers
    dtype = codec.partial_dtype(num)
    totals = ps_allreduce(
        cluster,
        [codec.encode(np.asarray(vector, dtype=dtype), 1) for vector in vectors],
        aggregate=lambda values: codec.encode(np.sum(values, axis=0), num),
        decode=codec.value,
    )
    # The broadcast hands every worker the server's one payload.
    return map_distinct(lambda total: codec.finish([codec.value(total)]), totals)


def signsum_star_allreduce(
    cluster: Cluster,
    sign_vectors: list[np.ndarray],
    charge_compression: bool = True,
) -> list[np.ndarray]:
    """Integer sign sums through the server: one-bit uploads, full-width download."""
    signs = checked_signs(cluster, sign_vectors, charge_compression)
    return _star_sum(cluster, signs, SIGN_SUM)


def star_allgather_scalars(
    cluster: Cluster, values: list[float]
) -> np.ndarray:
    """All-gather one float per worker through the parameter server."""
    num = cluster.num_workers
    gathered = ps_allreduce(
        cluster,
        [np.array([v], dtype=np.float32) for v in values],
        aggregate=lambda xs: np.concatenate(xs),
    )
    # PS order: server's own first, then others; restore rank order.
    server = cluster.topology.meta["server"]
    order = [server] + [r for r in range(num) if r != server]
    out = np.empty(num)
    out[order] = gathered[0]
    return out
