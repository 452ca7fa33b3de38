"""Golden snapshots of fault *decisions* for two fixed plans.

Every decision the injector makes is a pure function of the plan seed and
the decision's logical coordinates, so a scripted traffic pattern through
:meth:`Cluster.exchange` plus the reduce hops' :meth:`FaultInjector.flip_mask`
replays the same history on every machine.  The snapshots pin that history:
the ``faults.*`` counters, every step's makespan (jitter, stragglers and
retry waits folded in) and a sha256 over every flip mask.  A change to how
decisions are drawn that alters a single bit shows up here.  Refresh
intentionally with::

    python -m pytest tests/faults/test_fault_golden.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology, torus_topology
from repro.faults import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    LinkJitter,
    LinkPartition,
    MessageDrop,
    Straggler,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
ROUNDS = 3
STEPS = 3

# case -> (topology factory, plan, reduce payload bits of step 0)
CASES = {
    "torus_4x4_jitter_straggler_retry_flips": (
        lambda: torus_topology(4, 4),
        FaultPlan(
            seed=11,
            events=(
                LinkJitter(sigma=0.25),
                Straggler(worker=5, factor=2.0),
                MessageDrop(prob=0.05, mode="retry"),
                BitFlip(prob=2e-3),
                BitFlip(prob=0.01, links=((0, 1), (1, 2)), first_round=1),
            ),
            max_attempts=3,
        ),
        5313,
    ),
    "ring_8_timeout_partition": (
        lambda: ring_topology(8),
        FaultPlan(
            seed=23,
            events=(
                MessageDrop(
                    prob=0.2, mode="timeout", links=((0, 1), (3, 4), (5, 6))
                ),
                LinkPartition(src=6, dst=7, first_round=1, last_round=1),
            ),
            max_attempts=4,
        ),
        1000,
    ),
}


def replay(case_name: str) -> dict:
    """Drive one case's scripted traffic; return its decision record."""
    factory, plan, bits = CASES[case_name]
    cluster = Cluster(factory())
    injector = FaultInjector(plan)
    cluster.attach_faults(injector)
    links = sorted(cluster.links)
    makespans = []
    masks = hashlib.sha256()
    flipped_masks = 0
    for round_idx in range(ROUNDS):
        injector.begin_round(round_idx)
        for step in range(STEPS):
            length = bits + 37 * step
            nbytes = (length + 7) // 8
            for phase in ("rs", "ag"):
                tag = f"{phase}:{step}"
                transfers = [(src, dst, nbytes) for src, dst in links]
                # A second message on one link in the same step exercises
                # the per-link occurrence counter.
                transfers.append((links[0][0], links[0][1], nbytes))
                makespans.append(cluster.exchange(transfers, tag=tag))
                if phase != "rs":
                    continue
                for src, dst in links:
                    mask = injector.flip_mask(tag, src, dst, length)
                    masks.update(f"{tag}|{src}|{dst}|".encode("ascii"))
                    if mask is None:
                        masks.update(b"none;")
                    else:
                        flipped_masks += 1
                        masks.update(np.packbits(mask.to_bits()).tobytes())
                        masks.update(b";")
    return {
        "counters": dict(sorted(injector.counters.items())),
        "makespans_s": makespans,
        "flip_masks_sha256": masks.hexdigest(),
        "flipped_masks": flipped_masks,
        "total_bytes": cluster.total_bytes,
    }


@pytest.mark.parametrize("case_name", sorted(CASES))
def test_fault_decisions_match_golden(case_name, update_golden):
    document = replay(case_name)
    path = GOLDEN_DIR / f"{case_name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path}; run "
        "pytest tests/faults/test_fault_golden.py --update-golden"
    )
    recorded = json.loads(path.read_text())
    assert document == recorded, (
        f"fault decisions changed for {case_name}; if intended, refresh "
        "with --update-golden"
    )


def test_goldens_are_not_vacuous():
    torus = replay("torus_4x4_jitter_straggler_retry_flips")
    assert torus["counters"]["retries"] > 0
    assert torus["counters"]["flipped_bits"] > 0
    assert torus["flipped_masks"] > 0
    ring = replay("ring_8_timeout_partition")
    assert ring["counters"]["timeouts"] > 0
    assert ring["counters"]["partition_hits"] > 0
