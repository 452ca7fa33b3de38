"""Golden fingerprints of every registered collective.

Each case runs one collective — the registered FP mean, the integer sign
sum, the Elias-coded sign sum, the segmented ring sum, or the scalar
all-gather — on a fixed topology with seeded inputs, and records what a bit-for-bit refactor must
preserve: a sha256 over the outputs (dtype, shape and bytes), the total
bytes and messages, the bytes on every link, the simulated seconds per
timeline phase, and (for the faulty case) the fault-injector counters.

The faulty case runs one 4x4 torus round of mean + sign sum + all-gather
under link jitter, a straggler and retry-mode drops — the events of the
``schemes-torus-faulty`` benchmark workload — so every fault decision keyed
by ``(tag, link, occurrence)`` is pinned too.  A second faulty case runs
one halving-doubling round of mean + sign sum under the same events, where
several segments share a link in one step.  Refresh intentionally with::

    python -m pytest tests/allreduce/test_collective_golden.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.allreduce import get_topology
from repro.allreduce.codec import SignSumCodec, allreduce_sum, checked_signs
from repro.allreduce.segmented import segmented_ring_allreduce
from repro.comm.cluster import Cluster
from repro.faults import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    LinkJitter,
    MessageDrop,
    Straggler,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
DIMENSION = 101

# topology key -> (registry name, build kwargs, worker count)
TOPOLOGIES = {
    "ring_m5": ("ring", {}, 5),
    "torus_2x3": ("torus", {"rows": 2, "cols": 3}, 6),
    "torus_4x4": ("torus", {"rows": 4, "cols": 4}, 16),
    "ring_m6": ("ring", {}, 6),
    "tree_m7_a2": ("tree", {"arity": 2}, 7),
    "tree_m13_a3": ("tree", {"arity": 3}, 13),
    "halving_doubling_m8": ("halving_doubling", {}, 8),
    "star_m5": ("star", {}, 5),
}


def _mean(cluster, name, num, rng):
    vectors = [rng.standard_normal(DIMENSION) for _ in range(num)]
    return get_topology(name).mean_allreduce(cluster, vectors)


def _signs(rng, num):
    return [
        np.where(rng.standard_normal(DIMENSION) >= 0, 1.0, -1.0)
        for _ in range(num)
    ]


def _signsum(cluster, name, num, rng):
    return get_topology(name).signsum_allreduce(cluster, _signs(rng, num))


def _elias_signsum(cluster, name, num, rng):
    signs = checked_signs(cluster, _signs(rng, num), charge_compression=True)
    return allreduce_sum(cluster, signs, SignSumCodec(elias_coded=True))


def _segmented(cluster, name, num, rng):
    vectors = [rng.standard_normal(DIMENSION) for _ in range(num)]
    return segmented_ring_allreduce(cluster, vectors, segment_elems=40)


def _allgather(cluster, name, num, rng):
    values = list(rng.standard_normal(num) * 3.0)
    return get_topology(name).allgather_scalars(cluster, values)


def _faulty_round(cluster, name, num, rng):
    return [
        _mean(cluster, name, num, rng),
        _signsum(cluster, name, num, rng),
        _allgather(cluster, name, num, rng),
    ]


def _faulty_sums(cluster, name, num, rng):
    return [_mean(cluster, name, num, rng), _signsum(cluster, name, num, rng)]


def _fault_plan(seed: int) -> FaultPlan:
    """The ``schemes-torus-faulty`` workload's events (16 workers)."""
    return FaultPlan(
        seed=seed,
        events=(
            LinkJitter(sigma=0.25),
            Straggler(worker=seed % 16, factor=2.0),
            MessageDrop(prob=0.02, mode="retry"),
            BitFlip(prob=1e-3),
        ),
    )


# case -> (topology key, collective, fault plan seed or None)
CASES = {
    "ring_m5_mean": ("ring_m5", _mean, None),
    "ring_m5_signsum": ("ring_m5", _signsum, None),
    "ring_m5_signsum_elias": ("ring_m5", _elias_signsum, None),
    "ring_m5_allgather": ("ring_m5", _allgather, None),
    "torus_2x3_mean": ("torus_2x3", _mean, None),
    "torus_2x3_signsum": ("torus_2x3", _signsum, None),
    "torus_2x3_allgather": ("torus_2x3", _allgather, None),
    "torus_4x4_mean": ("torus_4x4", _mean, None),
    "torus_4x4_signsum": ("torus_4x4", _signsum, None),
    "torus_4x4_signsum_elias": ("torus_4x4", _elias_signsum, None),
    "torus_4x4_allgather": ("torus_4x4", _allgather, None),
    "ring_m6_segmented_40": ("ring_m6", _segmented, None),
    "tree_m7_a2_mean": ("tree_m7_a2", _mean, None),
    "tree_m7_a2_signsum": ("tree_m7_a2", _signsum, None),
    "tree_m7_a2_signsum_elias": ("tree_m7_a2", _elias_signsum, None),
    "tree_m13_a3_mean": ("tree_m13_a3", _mean, None),
    "halving_doubling_m8_mean": ("halving_doubling_m8", _mean, None),
    "halving_doubling_m8_signsum": ("halving_doubling_m8", _signsum, None),
    "halving_doubling_m8_signsum_elias": (
        "halving_doubling_m8", _elias_signsum, None,
    ),
    "halving_doubling_m8_faulty_round": (
        "halving_doubling_m8", _faulty_sums, 3,
    ),
    "star_m5_mean": ("star_m5", _mean, None),
    "star_m5_allgather": ("star_m5", _allgather, None),
    "torus_4x4_faulty_round": ("torus_4x4", _faulty_round, 3),
}


def _hash_outputs(digest, outputs) -> None:
    if isinstance(outputs, (list, tuple)):
        digest.update(f"list{len(outputs)}|".encode("ascii"))
        for item in outputs:
            _hash_outputs(digest, item)
        return
    array = np.ascontiguousarray(outputs)
    digest.update(f"{array.dtype.str}{array.shape}|".encode("ascii"))
    digest.update(array.tobytes())


def fingerprint(case_name: str) -> dict:
    """Run one case on a fresh cluster; return its fingerprint document."""
    topo_key, collective, fault_seed = CASES[case_name]
    name, kwargs, num = TOPOLOGIES[topo_key]
    cluster = Cluster(get_topology(name).build(num, **kwargs))
    injector = None
    if fault_seed is not None:
        injector = FaultInjector(_fault_plan(fault_seed))
        cluster.attach_faults(injector)
        injector.begin_round(0)
    rng = np.random.default_rng(sum(map(ord, case_name)))
    outputs = collective(cluster, name, num, rng)
    cluster.assert_drained()
    digest = hashlib.sha256()
    _hash_outputs(digest, outputs)
    document = {
        "outputs_sha256": digest.hexdigest(),
        "total_bytes": cluster.total_bytes,
        "total_messages": cluster.total_messages,
        "link_bytes": {
            f"{src}->{dst}": link.bytes_sent
            for (src, dst), link in sorted(cluster.links.items())
            if link.bytes_sent
        },
        "timeline_seconds": cluster.timeline.breakdown(),
    }
    if injector is not None:
        document["fault_counters"] = dict(sorted(injector.counters.items()))
    return document


@pytest.mark.parametrize("case_name", sorted(CASES))
def test_collective_matches_golden(case_name, update_golden):
    document = fingerprint(case_name)
    path = GOLDEN_DIR / f"{case_name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path}; run "
        "pytest tests/allreduce/test_collective_golden.py --update-golden"
    )
    recorded = json.loads(path.read_text())
    assert document == recorded, (
        f"collective fingerprint changed for {case_name}; if intended, "
        "refresh with --update-golden"
    )


def test_faulty_golden_is_not_vacuous():
    counters = fingerprint("torus_4x4_faulty_round")["fault_counters"]
    assert counters["retries"] > 0


def test_halving_doubling_faulty_golden_is_not_vacuous():
    counters = fingerprint("halving_doubling_m8_faulty_round")["fault_counters"]
    assert counters["retries"] > 0
