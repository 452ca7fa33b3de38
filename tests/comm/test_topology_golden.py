"""Golden edge order of every topology constructor.

``Cluster`` builds its per-link counters, and gossip its mixing weights,
by walking a topology's edges, so the edge *order* is part of what a
refactor of :mod:`repro.comm.topology` must keep: by source rank, then
each source's successors in the order the constructor added them.
Refresh intentionally with::

    python -m pytest tests/comm/test_topology_golden.py --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.comm.topology import (
    fully_connected_topology,
    halving_doubling_topology,
    ring_topology,
    star_topology,
    torus_topology,
    tree_topology,
)

GOLDEN = Path(__file__).parent / "golden" / "topology_edges.json"

CASES = {
    "ring_m5": lambda: ring_topology(5),
    "ring_m5_bidirectional": lambda: ring_topology(5, bidirectional=True),
    "torus_4x4": lambda: torus_topology(4, 4),
    "torus_2x3": lambda: torus_topology(2, 3),
    "star_m5": lambda: star_topology(5),
    "tree_m7_a2": lambda: tree_topology(7, arity=2),
    "tree_m7_a3": lambda: tree_topology(7, arity=3),
    "halving_doubling_m8": lambda: halving_doubling_topology(8),
    "full_m4": lambda: fully_connected_topology(4),
}


def _edges(topology) -> list[list[int]]:
    return [[src, dst] for src, dst in topology.edges]


def test_edge_order_matches_golden(update_golden):
    actual = {name: _edges(build()) for name, build in CASES.items()}
    if update_golden:
        lines = [f" {json.dumps(name)}: {json.dumps(actual[name])}" for name in CASES]
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        pytest.skip("golden edge orders rewritten")
    expected = json.loads(GOLDEN.read_text())
    assert set(expected) == set(CASES)
    for name in CASES:
        assert actual[name] == expected[name], name
