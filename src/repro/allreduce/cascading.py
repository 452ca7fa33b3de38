"""Cascading compression: the Section 3.2 anti-pattern, faithfully built.

Each ring hop runs the paper's five-step sequence: **receive** a compressed
segment, **recover** it to full precision, **aggregate** with the local raw
segment, **compress** the sum again, **send**.  Two pathologies follow, both
of which this implementation reproduces:

1. *Time*: recover/compress cannot overlap reception (the received bits are
   needed first), so every hop serializes a decompress + compress on the
   critical path; charged to the compression phase (Figure 1a).
2. *Error*: each hop re-quantizes an already-quantized partial sum whose
   l2-norm keeps growing, so the deviation compounds per Theorem 3
   (``(2D)^M G^2 / M``) and the matching rate collapses (Figure 1b) —
   divergence at M = 8 in Table 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.compression.base import Compressor, Payload
from repro.allreduce.ring import (
    parallel_ring_all_gather,
    parallel_ring_reduce_scatter,
    split_segments,
)

__all__ = ["cascading_ring_allreduce"]


def cascading_ring_allreduce(
    cluster: Cluster,
    vectors: list[np.ndarray],
    compressor: Compressor,
    rngs: Sequence[np.random.Generator],
    charge_time: bool = True,
) -> list[np.ndarray]:
    """Ring all-reduce with per-hop decompress -> add -> recompress.

    Args:
        cluster: ring-topology cluster.
        vectors: per-worker gradient vectors.
        compressor: the per-hop compressor ``Q`` (SSDM in the paper).
        rngs: one generator per worker for stochastic compression.
        charge_time: charge the serialized codec work to the timeline.

    Returns:
        Per-worker decoded aggregation results, **divided by M** (the mean
        estimate ``s_3`` of Appendix A).  All workers return the same value.
    """
    num = cluster.num_workers
    if len(vectors) != num or len(rngs) != num:
        raise ValueError("need one vector and one rng per worker")
    if num == 1:
        return [np.asarray(vectors[0], dtype=np.float64).copy()]

    raw = [split_segments(np.asarray(v, dtype=np.float64), num) for v in vectors]
    segment_elems = max(segment.size for segment in raw[0])

    # Step 0 sends a freshly compressed local segment; later sends forward
    # the payload produced by the previous hop's combine.  ``segments``
    # therefore starts as payloads for the first send index and raw floats
    # elsewhere; combine always receives a payload + a raw local segment.
    segments: list[list[object]] = []
    for pos in range(num):
        worker_segments: list[object] = list(raw[pos])
        first_send = pos % num
        worker_segments[first_send] = compressor.compress(
            raw[pos][first_send], rng=rngs[pos]
        )
        segments.append(worker_segments)
    if charge_time:
        cluster.charge(
            Phase.COMPRESSION, cluster.cost_model.compress_time(segment_elems)
        )

    def combine(received: Payload, local: object, step: int, rank: int) -> Payload:
        if not isinstance(local, np.ndarray):
            raise TypeError("cascading combine expected a raw local segment")
        recovered = received.decode()
        return compressor.compress(recovered + local, rng=rngs[rank])

    ring = [list(range(num))]
    parallel_ring_reduce_scatter(cluster, ring, [segments], combine, tag="casc-rs")
    if charge_time:
        per_hop = cluster.cost_model.decompress_time(
            segment_elems
        ) + cluster.cost_model.compress_time(segment_elems)
        cluster.charge(Phase.COMPRESSION, (num - 1) * per_hop)

    parallel_ring_all_gather(cluster, ring, [segments], tag="casc-ag")
    if charge_time:
        cluster.charge(
            Phase.COMPRESSION,
            cluster.cost_model.decompress_time(segment_elems * num),
        )

    results = []
    for pos in range(num):
        decoded = [
            seg.decode() if isinstance(seg, Payload) else np.asarray(seg)
            for seg in segments[pos]
        ]
        results.append(np.concatenate(decoded) / num)
    return results
