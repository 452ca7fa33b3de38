"""Tests for the six synchronization strategies."""

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology, star_topology, torus_topology
from repro.train.strategies import (
    CascadingSSDMStrategy,
    EFSignSGDStrategy,
    MarsitStrategy,
    PowerSGDStrategy,
    PSGDStrategy,
    SSDMStrategy,
    SignSGDMajorityStrategy,
    _allgather_scalars,
)

M, D = 4, 60


def grads(rng, m=M, d=D):
    return [rng.standard_normal(d) for _ in range(m)]


def ring():
    return Cluster(ring_topology(M))


ALL_STRATEGIES = [
    lambda: PSGDStrategy(lr=0.1, num_workers=M),
    lambda: PSGDStrategy(lr=0.1, num_workers=M, base_optimizer="adam"),
    lambda: PSGDStrategy(lr=0.1, num_workers=M, base_optimizer="sgd"),
    lambda: SignSGDMajorityStrategy(lr=0.01, num_workers=M),
    lambda: EFSignSGDStrategy(lr=0.1, num_workers=M),
    lambda: SSDMStrategy(lr=0.01, num_workers=M),
    lambda: CascadingSSDMStrategy(lr=0.1, num_workers=M),
    lambda: MarsitStrategy(local_lr=0.1, global_lr=0.01, num_workers=M, dimension=D),
    lambda: MarsitStrategy(
        local_lr=0.1, global_lr=0.01, num_workers=M, dimension=D,
        full_precision_every=3,
    ),
]


class TestConsensus:
    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_updates_identical_across_workers(self, factory, rng):
        strategy = factory()
        result = strategy.step(ring(), grads(rng), round_idx=1)
        assert len(result.updates) == M
        for update in result.updates[1:]:
            assert np.array_equal(update, result.updates[0])

    @pytest.mark.parametrize(
        "factory",
        ALL_STRATEGIES + [lambda: PowerSGDStrategy(lr=0.1, num_workers=M)],
    )
    def test_consensus_update_is_shared_and_read_only(self, factory, rng):
        result = factory().step(ring(), grads(rng), round_idx=1)
        first = result.updates[0]
        assert all(update is first for update in result.updates)
        assert not first.flags.writeable

    @pytest.mark.parametrize("factory", ALL_STRATEGIES)
    def test_stateful_across_rounds(self, factory, rng):
        strategy = factory()
        for round_idx in range(4):
            result = strategy.step(ring(), grads(rng), round_idx)
            assert np.isfinite(result.updates[0]).all()


class TestPSGD:
    def test_sgd_update_is_lr_times_mean(self, rng):
        strategy = PSGDStrategy(lr=0.5, num_workers=M, base_optimizer="sgd")
        vectors = grads(rng)
        result = strategy.step(ring(), vectors, 0)
        assert np.allclose(result.updates[0], 0.5 * np.mean(vectors, axis=0),
                           atol=1e-5)

    def test_momentum_accumulates(self, rng):
        strategy = PSGDStrategy(lr=1.0, num_workers=M, momentum=0.5)
        vectors = grads(rng)
        first = strategy.step(ring(), vectors, 0).updates[0]
        second = strategy.step(ring(), vectors, 1).updates[0]
        assert np.allclose(second, 1.5 * first, atol=1e-4)

    def test_works_on_torus(self, rng):
        strategy = PSGDStrategy(lr=0.5, num_workers=4, base_optimizer="sgd")
        cluster = Cluster(torus_topology(2, 2))
        vectors = grads(rng)
        result = strategy.step(cluster, vectors, 0)
        assert np.allclose(result.updates[0], 0.5 * np.mean(vectors, axis=0),
                           atol=1e-5)

    def test_works_on_star(self, rng):
        strategy = PSGDStrategy(lr=0.5, num_workers=4, base_optimizer="sgd")
        cluster = Cluster(star_topology(4, server=0))
        vectors = grads(rng)
        result = strategy.step(cluster, vectors, 0)
        assert np.allclose(result.updates[0], 0.5 * np.mean(vectors, axis=0),
                           atol=1e-4)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError):
            PSGDStrategy(lr=0.1, num_workers=2, base_optimizer="lamb")


class TestSignSGDMajority:
    def test_update_is_pm_lr(self, rng):
        strategy = SignSGDMajorityStrategy(lr=0.02, num_workers=M, momentum=0.0)
        result = strategy.step(ring(), grads(rng), 0)
        assert np.isin(result.updates[0], (-0.02, 0.02)).all()

    def test_majority_direction(self):
        strategy = SignSGDMajorityStrategy(lr=1.0, num_workers=3, momentum=0.0)
        cluster = Cluster(ring_topology(3))
        vectors = [np.array([1.0, -1.0]), np.array([1.0, 1.0]), np.array([-1.0, -1.0])]
        result = strategy.step(cluster, vectors, 0)
        assert np.array_equal(result.updates[0], [1.0, -1.0])

    def test_bits_reflect_expansion(self, rng):
        strategy = SignSGDMajorityStrategy(lr=0.01, num_workers=M)
        result = strategy.step(ring(), grads(rng), 0)
        assert result.bits_per_element > 1.0


class TestEFSignSGD:
    def test_error_feedback_tracks_gradient_sum(self, rng):
        strategy = EFSignSGDStrategy(lr=1.0, num_workers=M, momentum=0.0)
        total_grad = np.zeros(D)
        total_update = np.zeros(D)
        for round_idx in range(60):
            vectors = grads(rng)
            total_grad += np.mean(vectors, axis=0)
            total_update += strategy.step(ring(), vectors, round_idx).updates[0]
        # Memories stay bounded, so cumulative update ~ cumulative gradient.
        drift = np.abs(total_update - total_grad).mean()
        assert drift < 0.2 * np.abs(total_grad).mean() + 2.0


class TestSSDM:
    def test_norm_scaled_update_unbiased(self, rng):
        vectors = grads(rng)
        expected = np.mean(vectors, axis=0)
        total = np.zeros(D)
        trials = 300
        for trial in range(trials):
            strategy = SSDMStrategy(
                lr=1.0, num_workers=M, seed=trial,
                base_optimizer="sgd", norm_scaled=True,
            )
            total += strategy.step(ring(), [v.copy() for v in vectors], 0).updates[0]
        estimate = total / trials
        # Per-element std ~ norm/sqrt(trials): generous but directional.
        assert np.abs(estimate - expected).mean() < 1.5

    def test_sign_descent_update_bounded_by_lr(self, rng):
        strategy = SSDMStrategy(lr=0.01, num_workers=M, base_optimizer="sgd")
        result = strategy.step(ring(), grads(rng), 0)
        assert np.abs(result.updates[0]).max() <= 0.01 + 1e-12

    def test_sign_descent_direction_unbiased(self, rng):
        # E[mean of stochastic signs] = mean of g_m / ||g_m||.
        vectors = grads(rng)
        expected = np.mean([v / np.linalg.norm(v) for v in vectors], axis=0)
        total = np.zeros(D)
        trials = 400
        for trial in range(trials):
            strategy = SSDMStrategy(
                lr=1.0, num_workers=M, seed=trial, base_optimizer="sgd"
            )
            total += strategy.step(ring(), [v.copy() for v in vectors], 0).updates[0]
        estimate = total / trials
        assert np.corrcoef(estimate, expected)[0, 1] > 0.5

    def test_adam_base_runs(self, rng):
        strategy = SSDMStrategy(lr=0.001, num_workers=M, base_optimizer="adam")
        for round_idx in range(3):
            result = strategy.step(ring(), grads(rng), round_idx)
        assert np.isfinite(result.updates[0]).all()


class TestCascading:
    def test_normalized_update_has_gradient_scale(self, rng):
        strategy = CascadingSSDMStrategy(lr=1.0, num_workers=M, normalize=True)
        vectors = grads(rng)
        result = strategy.step(ring(), vectors, 0)
        target = np.mean([np.linalg.norm(v) for v in vectors])
        assert np.linalg.norm(result.updates[0]) == pytest.approx(target, rel=1e-6)

    def test_unnormalized_explodes_with_ssdm(self, rng):
        strategy = CascadingSSDMStrategy(lr=1.0, num_workers=M, normalize=False)
        vectors = grads(rng)
        result = strategy.step(ring(), vectors, 0)
        # Theorem 3: the decoded norm is >> any worker's gradient norm.
        assert np.linalg.norm(result.updates[0]) > 10 * np.linalg.norm(vectors[0])

    def test_momentum_option(self, rng):
        strategy = CascadingSSDMStrategy(lr=0.1, num_workers=M, momentum=0.9)
        for round_idx in range(3):
            result = strategy.step(ring(), grads(rng), round_idx)
        assert np.isfinite(result.updates[0]).all()


class TestMarsitStrategy:
    def test_one_bit_bits(self, rng):
        strategy = MarsitStrategy(
            local_lr=0.1, global_lr=0.01, num_workers=M, dimension=D
        )
        result = strategy.step(ring(), grads(rng), 1)
        assert result.bits_per_element == 1.0

    def test_k_schedule_bits(self, rng):
        strategy = MarsitStrategy(
            local_lr=0.1, global_lr=0.01, num_workers=M, dimension=D,
            full_precision_every=2,
        )
        bits = [
            strategy.step(ring(), grads(rng), t).bits_per_element for t in range(4)
        ]
        assert bits == [32.0, 1.0, 32.0, 1.0]

    def test_local_lr_decay_applied_at_full_precision(self, rng):
        strategy = MarsitStrategy(
            local_lr=1.0, global_lr=0.01, num_workers=M, dimension=D,
            full_precision_every=2, local_lr_decay=0.1,
        )
        strategy.step(ring(), grads(rng), 0)  # t=0 FP but round 0: no decay
        assert strategy._optimizer.local_lr == pytest.approx(1.0)
        strategy.step(ring(), grads(rng), 1)
        strategy.step(ring(), grads(rng), 2)  # FP round: decay
        assert strategy._optimizer.local_lr == pytest.approx(0.1)

    def test_name_reflects_k(self):
        plain = MarsitStrategy(local_lr=0.1, global_lr=0.01, num_workers=2,
                               dimension=4)
        periodic = MarsitStrategy(local_lr=0.1, global_lr=0.01, num_workers=2,
                                  dimension=4, full_precision_every=100)
        assert plain.name == "marsit"
        assert periodic.name == "marsit-100"

    def test_rejects_unknown_base(self):
        with pytest.raises(ValueError):
            MarsitStrategy(local_lr=0.1, global_lr=0.01, num_workers=2,
                           dimension=4, base_optimizer="rmsprop")


class TestAllgatherScalars:
    def test_ring_allgather(self):
        cluster = Cluster(ring_topology(5))
        values = [float(i) * 1.5 for i in range(5)]
        gathered = _allgather_scalars(cluster, values)
        assert np.allclose(gathered, values)

    def test_star_allgather_restores_rank_order(self):
        cluster = Cluster(star_topology(4, server=1))
        values = [10.0, 11.0, 12.0, 13.0]
        gathered = _allgather_scalars(cluster, values)
        assert np.allclose(gathered, values)

    def test_single_worker(self):
        cluster = Cluster(ring_topology(1))
        assert np.allclose(_allgather_scalars(cluster, [3.0]), [3.0])
