"""Tests for Marsit-driven optimizers (Algorithm 2 variants)."""

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology
from repro.core.marsit import MarsitConfig
from repro.core.optimizer import MarsitAdam, MarsitMomentum, MarsitSGD


def cluster(m):
    return Cluster(ring_topology(m))


class TestMarsitSGD:
    def test_transform_scales_by_local_lr(self, rng):
        opt = MarsitSGD(MarsitConfig(global_lr=0.01), 0.5, 2, 8)
        grad = rng.standard_normal(8)
        # transform consumes its input: hand it a copy.
        assert np.allclose(opt.transform(0, grad.copy()), 0.5 * grad)

    def test_step_returns_consensus(self, rng):
        m, d = 3, 24
        opt = MarsitSGD(MarsitConfig(global_lr=0.01), 0.1, m, d)
        report = opt.step(cluster(m), [rng.standard_normal(d) for _ in range(m)], 1)
        for update in report.global_updates[1:]:
            assert np.array_equal(update, report.global_updates[0])

    def test_rejects_wrong_grad_count(self, rng):
        opt = MarsitSGD(MarsitConfig(global_lr=0.01), 0.1, 3, 8)
        with pytest.raises(ValueError):
            opt.step(cluster(3), [rng.standard_normal(8)] * 2, 1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            MarsitSGD(MarsitConfig(global_lr=0.01), 0.0, 2, 4)


class TestMarsitMomentum:
    def test_matches_reference_heavy_ball(self, rng):
        opt = MarsitMomentum(
            MarsitConfig(global_lr=0.01), 0.1, 1, 6, momentum=0.9
        )
        buffer = np.zeros(6)
        for _ in range(5):
            grad = rng.standard_normal(6)
            buffer = 0.9 * buffer + grad
            assert np.allclose(opt.transform(0, grad), 0.1 * buffer)

    def test_buffers_are_per_worker(self, rng):
        opt = MarsitMomentum(MarsitConfig(global_lr=0.01), 0.1, 2, 4)
        g = rng.standard_normal(4)
        opt.transform(0, g.copy())
        # Worker 1's buffer is untouched by worker 0's update.
        assert np.allclose(opt.transform(1, g.copy()), 0.1 * g)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            MarsitMomentum(MarsitConfig(global_lr=0.01), 0.1, 2, 4, momentum=1.0)


class TestMarsitAdam:
    def test_matches_reference_adam(self, rng):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = MarsitAdam(
            MarsitConfig(global_lr=0.01), lr, 1, 5, beta1=b1, beta2=b2, eps=eps
        )
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 6):
            grad = rng.standard_normal(5)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expected = lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.allclose(opt.transform(0, grad), expected)

    def test_first_step_magnitude_near_lr(self, rng):
        # Bias correction makes |update| ~ lr on step one.
        opt = MarsitAdam(MarsitConfig(global_lr=0.01), 0.01, 1, 100)
        update = opt.transform(0, rng.standard_normal(100))
        assert np.abs(update).max() < 0.011
        assert np.abs(update).mean() > 0.005

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            MarsitAdam(MarsitConfig(global_lr=0.01), 0.1, 1, 4, beta1=1.0)
