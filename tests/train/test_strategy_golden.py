"""Golden fingerprints of every synchronization strategy's updates.

Each case steps one strategy for five rounds on a fresh cluster (a 4-worker
ring, and a 2x3 torus where the scheme runs there) with seeded gradients.
The gradients carry exact ``+0.0`` and ``-0.0`` entries, and one worker's
gradient is all zeros, so sign ties, zero norms and signed-zero sums are
pinned too.  Cases run at ``D = 103``, which PowerSGD pads to a 10 x 11
matrix; ``powersgd_square`` also runs at ``D = 121`` (11 x 11, no
padding).  Every round records what a bit-for-bit refactor must
preserve: a sha256 over the updates (dtype, shape and bytes), the
``bits_per_element`` the strategy reports, and the cluster's cumulative
``total_bytes`` and ``total_messages``.  Refresh intentionally with::

    python -m pytest tests/train/test_strategy_golden.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.allreduce import get_topology
from repro.comm.cluster import Cluster
from repro.train.strategies import (
    CascadingSSDMStrategy,
    EFSignSGDStrategy,
    MarsitStrategy,
    PowerSGDStrategy,
    PSGDStrategy,
    SSDMStrategy,
    SignSGDMajorityStrategy,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
DIMENSION = 103
ROUNDS = 5

# topology key -> (registry name, build kwargs, worker count)
TOPOLOGIES = {
    "ring_m4": ("ring", {}, 4),
    "torus_2x3": ("torus", {"rows": 2, "cols": 3}, 6),
}


def _marsit(base, k):
    def build(m):
        return MarsitStrategy(
            local_lr=0.1,
            global_lr=0.01,
            num_workers=m,
            dimension=DIMENSION,
            full_precision_every=k,
            base_optimizer=base,
            seed=5,
        )

    return build


# scheme -> (factory taking the worker count, topology keys)
BOTH = ("ring_m4", "torus_2x3")
SCHEMES = {
    "cascading_m0": (
        lambda m: CascadingSSDMStrategy(lr=0.1, num_workers=m, seed=2),
        ("ring_m4",),
    ),
    "cascading_m05": (
        lambda m: CascadingSSDMStrategy(
            lr=0.1, num_workers=m, seed=2, momentum=0.5
        ),
        ("ring_m4",),
    ),
    "powersgd": (lambda m: PowerSGDStrategy(lr=0.1, num_workers=m, seed=4), BOTH),
    "ssdm_norm_scaled": (
        lambda m: SSDMStrategy(lr=0.01, num_workers=m, seed=3, norm_scaled=True),
        BOTH,
    ),
    "ssdm_block7": (
        lambda m: SSDMStrategy(lr=0.01, num_workers=m, seed=3, block_size=7),
        BOTH,
    ),
}
for _base in ("momentum", "adam", "sgd"):
    SCHEMES[f"psgd_{_base}"] = (
        lambda m, b=_base: PSGDStrategy(lr=0.1, num_workers=m, base_optimizer=b),
        BOTH,
    )
    SCHEMES[f"signsgd_{_base}"] = (
        lambda m, b=_base: SignSGDMajorityStrategy(
            lr=0.01, num_workers=m, base_optimizer=b
        ),
        BOTH,
    )
    SCHEMES[f"ef_signsgd_{_base}"] = (
        lambda m, b=_base: EFSignSGDStrategy(
            lr=0.1, num_workers=m, base_optimizer=b
        ),
        BOTH,
    )
    SCHEMES[f"ssdm_{_base}"] = (
        lambda m, b=_base: SSDMStrategy(
            lr=0.01, num_workers=m, seed=3, base_optimizer=b
        ),
        BOTH,
    )
    for _k in (3, None):
        SCHEMES[f"marsit_{_base}_k{_k}"] = (_marsit(_base, _k), BOTH)

SCHEMES["powersgd_square"] = SCHEMES["powersgd"]
# scheme -> gradient length, where it is not DIMENSION
DIMENSIONS = {"powersgd_square": 121}

CASES = {
    f"{scheme}_{topo}": (scheme, topo)
    for scheme, (_, topos) in SCHEMES.items()
    for topo in topos
}


def _gradients(rng, num: int, dimension: int = DIMENSION) -> list[np.ndarray]:
    """One round's seeded gradients with exact signed zeros.

    Every worker gets some ``+0.0`` and ``-0.0`` entries, and the last
    worker's gradient is all zeros (alternating ``+0.0``/``-0.0``).
    """
    grads = rng.standard_normal((num, dimension)) * 0.1
    grads[:, ::11] = 0.0
    grads[:, 5::13] = -0.0
    grads[-1] = 0.0
    grads[-1, 1::2] = -0.0
    return [row.copy() for row in grads]


def _hash_updates(updates) -> str:
    digest = hashlib.sha256()
    digest.update(f"list{len(updates)}|".encode("ascii"))
    for update in updates:
        array = np.ascontiguousarray(update)
        digest.update(f"{array.dtype.str}{array.shape}|".encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def fingerprint(case_name: str) -> dict:
    """Step one case on a fresh cluster; return its fingerprint document."""
    scheme, topo_key = CASES[case_name]
    name, kwargs, num = TOPOLOGIES[topo_key]
    cluster = Cluster(get_topology(name).build(num, **kwargs))
    strategy = SCHEMES[scheme][0](num)
    dimension = DIMENSIONS.get(scheme, DIMENSION)
    rng = np.random.default_rng(sum(map(ord, case_name)))
    rounds = []
    for round_idx in range(ROUNDS):
        result = strategy.step(cluster, _gradients(rng, num, dimension), round_idx)
        rounds.append(
            {
                "updates_sha256": _hash_updates(result.updates),
                "bits_per_element": result.bits_per_element,
                "total_bytes": cluster.total_bytes,
                "total_messages": cluster.total_messages,
            }
        )
    cluster.assert_drained()
    return {"rounds": rounds}


@pytest.mark.parametrize("case_name", sorted(CASES))
def test_strategy_matches_golden(case_name, update_golden):
    document = fingerprint(case_name)
    path = GOLDEN_DIR / f"{case_name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path}; run "
        "pytest tests/train/test_strategy_golden.py --update-golden"
    )
    recorded = json.loads(path.read_text())
    assert document == recorded, (
        f"strategy fingerprint changed for {case_name}; if intended, "
        "refresh with --update-golden"
    )


def test_gradients_carry_signed_zeros():
    grads = _gradients(np.random.default_rng(0), 4)
    zeros = np.concatenate(grads) == 0.0
    negative = np.signbit(np.concatenate(grads))
    assert (zeros & negative).any() and (zeros & ~negative).any()
    assert not grads[-1].any()
