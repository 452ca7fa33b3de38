"""Every sign baseline on every registered topology.

The MAR-extended sign baselines sum their signs through the topology's own
schedule under the sign-sum codec, so they run wherever PSGD runs.  The two
schemes that also all-gather per-worker scales (EF-signSGD, norm-scaled
SSDM) need a scalar all-gather; on a topology without one they raise a
``ValueError`` naming the topology and the missing collective.
"""

import numpy as np
import pytest

from repro.allreduce import get_topology, topology_names
from repro.comm.cluster import Cluster
from repro.train.strategies import (
    EFSignSGDStrategy,
    PSGDStrategy,
    SSDMStrategy,
    SignSGDMajorityStrategy,
)

D = 96

# registry name -> (worker count, build kwargs)
SHAPES = {
    "ring": (5, {}),
    "torus": (6, {"rows": 2, "cols": 3}),
    "tree": (7, {"arity": 2}),
    "halving_doubling": (8, {}),
    "star": (5, {}),
}

SCHEMES = {
    "psgd": lambda m: PSGDStrategy(lr=0.1, num_workers=m, base_optimizer="sgd"),
    "signsgd-mv": lambda m: SignSGDMajorityStrategy(
        lr=0.1, num_workers=m, base_optimizer="sgd"
    ),
    "ef-signsgd": lambda m: EFSignSGDStrategy(
        lr=0.1, num_workers=m, base_optimizer="sgd"
    ),
    "ssdm": lambda m: SSDMStrategy(lr=0.1, num_workers=m, base_optimizer="sgd"),
}


def _cluster(name: str) -> Cluster:
    num, kwargs = SHAPES[name]
    return Cluster(get_topology(name).build(num, **kwargs))


def _grads(num: int) -> list[np.ndarray]:
    rng = np.random.default_rng(num)
    return [rng.standard_normal(D) for _ in range(num)]


def test_every_registered_topology_has_a_shape():
    assert set(topology_names()) == set(SHAPES)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("name", topology_names())
def test_scheme_runs_or_names_missing_collective(name, scheme):
    num = SHAPES[name][0]
    cluster = _cluster(name)
    grads = _grads(num)
    strategy = SCHEMES[scheme](num)
    needs_gather = scheme == "ef-signsgd"
    if needs_gather and get_topology(name).allgather_scalars is None:
        with pytest.raises(ValueError, match=f"{name!r}.*allgather_scalars"):
            strategy.step(cluster, grads, 0)
        return
    # The strategy consumes its input; the checks below read ``grads``.
    result = strategy.step(cluster, [g.copy() for g in grads], 0)
    update = result.updates[0]
    assert update.shape == (D,)
    assert np.isfinite(update).all()
    if scheme == "psgd":
        assert np.allclose(update, 0.1 * np.mean(grads, axis=0), atol=1e-6)
    if scheme == "signsgd-mv":
        votes = np.sum([np.where(g >= 0, 1, -1) for g in grads], axis=0)
        assert np.array_equal(update, 0.1 * np.where(votes >= 0, 1.0, -1.0))
    assert cluster.total_bytes > 0
    cluster.assert_drained()


@pytest.mark.parametrize("name", topology_names())
def test_norm_scaled_ssdm_needs_a_scalar_allgather(name):
    num = SHAPES[name][0]
    strategy = SSDMStrategy(
        lr=0.1, num_workers=num, base_optimizer="sgd", norm_scaled=True
    )
    cluster = _cluster(name)
    if get_topology(name).allgather_scalars is None:
        with pytest.raises(ValueError, match=f"{name!r}.*allgather_scalars"):
            strategy.step(cluster, _grads(num), 0)
    else:
        assert np.isfinite(strategy.step(cluster, _grads(num), 0).updates[0]).all()


#: The schemes that all-gather per-worker scales, with momentum state.
SCALED = {
    "ef-signsgd": lambda m: EFSignSGDStrategy(lr=0.1, num_workers=m),
    "ssdm-norm-scaled": lambda m: SSDMStrategy(
        lr=0.1, num_workers=m, seed=1, norm_scaled=True
    ),
}


@pytest.mark.parametrize("scheme", sorted(SCALED))
@pytest.mark.parametrize(
    "name",
    [n for n in topology_names() if get_topology(n).allgather_scalars is None],
)
def test_missing_allgather_raises_before_any_state_changes(name, scheme):
    num = SHAPES[name][0]
    cluster = _cluster(name)
    grads = np.array(_grads(num))
    strategy = SCALED[scheme](num)
    with pytest.raises(ValueError, match=f"{name!r}.*allgather_scalars"):
        strategy.step(cluster, grads, 0)
    assert cluster.total_bytes == 0
    assert np.array_equal(grads, _grads(num))
    # No optimizer, residual or random state moved: a ring step matches a
    # fresh strategy's first step byte for byte.
    ring = get_topology("ring")
    ours = strategy.step(Cluster(ring.build(num)), grads, 0)
    fresh = SCALED[scheme](num).step(Cluster(ring.build(num)), _grads(num), 0)
    assert ours.updates[0].tobytes() == fresh.updates[0].tobytes()


@pytest.mark.parametrize("name", topology_names())
def test_sign_sum_is_exact_and_cheaper_than_fp32(name):
    num = SHAPES[name][0]
    signs = [np.where(g >= 0, 1.0, -1.0) for g in _grads(num)]
    entry = get_topology(name)
    sign_cluster = _cluster(name)
    totals = entry.signsum_allreduce(sign_cluster, signs)
    expected = np.sum(signs, axis=0).astype(np.int64)
    assert len(totals) == num
    for total in totals:
        assert total.dtype == np.int64
        assert np.array_equal(total, expected)
    sign_cluster.assert_drained()
    fp_cluster = _cluster(name)
    entry.mean_allreduce(fp_cluster, signs)
    assert 0 < sign_cluster.total_bytes < fp_cluster.total_bytes
