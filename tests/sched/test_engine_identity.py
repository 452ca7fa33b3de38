"""Cross-engine identity over every registered one-bit topology.

The SyncPlan contract: both executors interpreting the same plan must
produce bit-for-bit identical global updates AND identical accounting —
total bytes, total messages, per-link counters, and the simulated timeline —
on every topology with a registered compiler, including ragged sizes
(``D % M != 0``), empty segments (``D < M``), segmented-ring pipelining, and
K-sync full-precision rounds.  The same holds for the sum plans every
compiler's schedule lowers to (the FP32 mean and the fixed-width and Elias
sign sums).  One parametrized suite replaces the old per-topology copies: a
newly registered topology that is not covered here fails
:func:`test_every_registered_topology_has_cases`.
"""

import numpy as np
import pytest

from repro.allreduce import get_topology, one_bit_topology_names
from repro.allreduce.codec import FloatCodec, SignSumCodec, sum_plan
from repro.comm.cluster import Cluster
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.sched import get_executor

ROUNDS = 3

# name -> list of (build_kwargs, num_workers, dimension, config_overrides)
CASES = {
    "ring": [
        ({}, 8, 512, {}),
        ({}, 5, 103, {}),
        ({}, 4, 3, {}),
        ({}, 6, 500, {"segment_elems": 64}),
        ({}, 6, 500, {"segment_elems": 100}),
        ({}, 6, 500, {"segment_elems": 1000}),
    ],
    "torus": [
        ({"rows": 4, "cols": 4}, 16, 256, {}),
        ({"rows": 2, "cols": 3}, 6, 101, {}),
        ({"rows": 1, "cols": 4}, 4, 64, {}),
        ({"rows": 3, "cols": 1}, 3, 50, {}),
    ],
    "tree": [
        ({"arity": 2}, 7, 200, {}),
        ({"arity": 3}, 13, 257, {}),
        ({"arity": 2}, 4, 65, {}),
    ],
    "halving_doubling": [
        ({}, 8, 256, {}),
        ({}, 4, 37, {}),
        ({}, 2, 3, {}),
    ],
}

PARAMS = [
    pytest.param(name, case, k_sync, id=f"{name}-{idx}-K{k_sync}")
    for name, cases in sorted(CASES.items())
    for idx, case in enumerate(cases)
    for k_sync in (None, 2)
]


def _run(name, build_kwargs, num_workers, dimension, engine, k_sync, config):
    topology = get_topology(name).build(num_workers, **build_kwargs)
    cluster = Cluster(topology)
    sync = MarsitSynchronizer(
        MarsitConfig(
            global_lr=0.25,
            seed=42,
            engine=engine,
            full_precision_every=k_sync,
            **config,
        ),
        num_workers,
        dimension,
    )
    rng = np.random.default_rng(9)
    outputs = []
    for round_idx in range(1, ROUNDS + 1):
        updates = [rng.standard_normal(dimension) for _ in range(num_workers)]
        report = sync.synchronize(cluster, updates, round_idx)
        outputs.append(np.stack(report.global_updates))
    return cluster, sync, outputs, report


def _assert_same_accounting(scalar_cluster, batched_cluster):
    assert batched_cluster.total_bytes == scalar_cluster.total_bytes
    assert batched_cluster.total_messages == scalar_cluster.total_messages
    assert batched_cluster.links.keys() == scalar_cluster.links.keys()
    for key, link in scalar_cluster.links.items():
        assert batched_cluster.links[key].bytes_sent == link.bytes_sent
        assert batched_cluster.links[key].messages_sent == link.messages_sent
    assert batched_cluster.timeline.seconds == scalar_cluster.timeline.seconds


def test_every_registered_topology_has_cases():
    assert set(CASES) == set(one_bit_topology_names())


@pytest.mark.parametrize("name,case,k_sync", PARAMS)
def test_engines_identical(name, case, k_sync):
    build_kwargs, num_workers, dimension, config = case
    scalar_cluster, scalar_sync, scalar_out, scalar_rep = _run(
        name, build_kwargs, num_workers, dimension, "scalar", k_sync, config
    )
    batched_cluster, batched_sync, batched_out, batched_rep = _run(
        name, build_kwargs, num_workers, dimension, "batched", k_sync, config
    )
    for reference, candidate in zip(scalar_out, batched_out):
        assert np.array_equal(reference, candidate)
    assert np.array_equal(
        scalar_sync.state.compensation, batched_sync.state.compensation
    )
    _assert_same_accounting(scalar_cluster, batched_cluster)
    # The plan is a property of the topology, not the executor.
    assert scalar_rep.plan_digest == batched_rep.plan_digest
    assert scalar_rep.num_plan_steps == batched_rep.num_plan_steps
    assert scalar_rep.plan_digest is not None
    assert scalar_rep.num_plan_steps > 0


CODECS = {
    "fp32": FloatCodec(),
    "signsum": SignSumCodec(),
    "signsum-elias": SignSumCodec(elias_coded=True),
}

SUM_PARAMS = [
    pytest.param(name, case, codec, id=f"{name}-{idx}-{codec}")
    for name, cases in sorted(CASES.items())
    for idx, case in enumerate(cases)
    for codec in CODECS
]


def _run_sum(name, case, codec, engine):
    build_kwargs, num_workers, dimension, config = case
    topology = get_topology(name).build(num_workers, **build_kwargs)
    cluster = Cluster(topology)
    plan = sum_plan(
        topology, dimension, CODECS[codec].op, config.get("segment_elems")
    )
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((num_workers, dimension))
    if codec != "fp32":
        vectors = np.where(vectors >= 0, 1.0, -1.0)
    results = get_executor(engine).run_sum(plan, cluster, vectors, CODECS[codec])
    return cluster, vectors, np.stack(results)


@pytest.mark.parametrize("name,case,codec", SUM_PARAMS)
def test_engines_identical_on_sum_plans(name, case, codec):
    scalar_cluster, vectors, scalar_out = _run_sum(name, case, codec, "scalar")
    batched_cluster, _, batched_out = _run_sum(name, case, codec, "batched")
    assert np.array_equal(scalar_out, batched_out)
    _assert_same_accounting(scalar_cluster, batched_cluster)
    expected = vectors.sum(axis=0)
    if codec == "fp32":
        assert np.allclose(scalar_out, expected, atol=1e-4)
    else:
        assert np.array_equal(scalar_out, np.broadcast_to(expected, vectors.shape))
    scalar_cluster.assert_drained()


def test_one_message_per_link_per_step():
    """A step's transfers on one link travel as one message: the one-bit
    butterfly sends what the FP butterfly sends, one message per partner."""
    topology = get_topology("halving_doubling").build(8)
    updates = np.random.default_rng(0).standard_normal((8, 101))
    fp = Cluster(topology)
    get_topology("halving_doubling").mean_allreduce(fp, list(updates))
    assert fp.total_messages == 48
    for engine in ("scalar", "batched"):
        cluster = Cluster(topology)
        MarsitSynchronizer(
            MarsitConfig(global_lr=0.1, seed=1, engine=engine), 8, 101
        ).synchronize(cluster, updates, 1)
        assert cluster.total_messages == fp.total_messages
        assert cluster.total_bytes == 224
