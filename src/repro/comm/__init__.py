"""Communication substrate: bit codecs, topologies, simulated cluster, timing.

This package provides everything below the all-reduce layer:

- :mod:`repro.comm.bits` — sign-bit packing and wire-size rules for sign sums.
- :mod:`repro.comm.topology` — ring / 2D-torus / star / tree graphs.
- :mod:`repro.comm.cluster` — an in-process simulated cluster whose workers
  exchange messages over explicit links, with byte accounting.
- :mod:`repro.comm.timing` — the alpha-beta analytical cost model used to
  produce the paper's simulated wall-clock results.
"""

from repro.comm.bits import (
    PackedBits,
    PackedBitsBatch,
    elias_gamma_bits,
    signed_int_bit_width,
)
from repro.comm.cluster import Cluster, Link, Message, Worker
from repro.comm.timing import CostModel, Phase, TimeLine
from repro.comm.topology import (
    Topology,
    fully_connected_topology,
    ring_topology,
    star_topology,
    torus_topology,
    tree_topology,
)

__all__ = [
    "Cluster",
    "CostModel",
    "Link",
    "Message",
    "PackedBits",
    "PackedBitsBatch",
    "Phase",
    "TimeLine",
    "Topology",
    "Worker",
    "elias_gamma_bits",
    "fully_connected_topology",
    "ring_topology",
    "signed_int_bit_width",
    "star_topology",
    "torus_topology",
    "tree_topology",
]
