"""Edge-case tests across modules: initializers, empties, strategy options."""

import numpy as np
import pytest

from repro.nn.init import kaiming_uniform, xavier_uniform


class TestInitializers:
    def test_kaiming_bound(self, rng):
        weights = kaiming_uniform(rng, (1000,), fan_in=25)
        bound = np.sqrt(6.0 / 25)
        assert np.abs(weights).max() <= bound
        assert np.abs(weights).max() > 0.8 * bound  # actually fills the range

    def test_kaiming_rejects_bad_fan(self, rng):
        with pytest.raises(ValueError):
            kaiming_uniform(rng, (4,), fan_in=0)

    def test_xavier_bound(self, rng):
        weights = xavier_uniform(rng, (30, 20))
        bound = np.sqrt(6.0 / 50)
        assert np.abs(weights).max() <= bound

    def test_xavier_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            xavier_uniform(rng, (5,))


class TestEmptyAndDegenerate:
    def test_module_without_parameters(self):
        from repro.nn.layers import Flatten

        layer = Flatten()
        assert layer.num_parameters() == 0
        assert layer.flatten_grads().size == 0
        assert layer.flatten_params().size == 0

    def test_meanabs_zero_vector(self):
        from repro.compression.signsgd import MeanAbsSignCompressor

        payload = MeanAbsSignCompressor().compress(np.zeros(8))
        assert np.allclose(payload.decode(), 0.0)

    def test_topk_all_zero_vector(self):
        from repro.compression.topk import TopKCompressor

        payload = TopKCompressor(k=3).compress(np.zeros(10))
        assert np.allclose(payload.decode(), 0.0)

    def test_marsit_dimension_one(self, rng):
        from repro.comm.cluster import Cluster
        from repro.comm.topology import ring_topology
        from repro.core.marsit import MarsitConfig, MarsitSynchronizer

        sync = MarsitSynchronizer(MarsitConfig(global_lr=1.0), 3, 1)
        report = sync.synchronize(
            Cluster(ring_topology(3)),
            [np.array([1.0]), np.array([-1.0]), np.array([1.0])],
            1,
        )
        assert report.global_updates[0].shape == (1,)

    def test_ring_allreduce_dimension_zero(self):
        from repro.allreduce.codec import FloatCodec, allreduce_sum
        from repro.comm.cluster import Cluster
        from repro.comm.topology import ring_topology

        results = allreduce_sum(
            Cluster(ring_topology(3)), [np.zeros(0) for _ in range(3)], FloatCodec()
        )
        assert results[0].size == 0


class TestMarsitStrategyOptions:
    def test_segment_elems_passthrough(self, rng):
        from repro.comm.cluster import Cluster
        from repro.comm.topology import ring_topology
        from repro.train.strategies import MarsitStrategy

        strategy = MarsitStrategy(
            local_lr=0.1, global_lr=0.01, num_workers=3, dimension=90,
            segment_elems=16,
        )
        result = strategy.step(
            Cluster(ring_topology(3)),
            [rng.standard_normal(90) for _ in range(3)], 1,
        )
        assert np.isin(result.updates[0] / 0.01, (-1.0, 1.0)).all()

    def test_global_lr_schedule_applied(self, rng):
        from repro.comm.cluster import Cluster
        from repro.comm.topology import ring_topology
        from repro.train.strategies import MarsitStrategy

        strategy = MarsitStrategy(
            local_lr=0.1, global_lr=1.0, num_workers=2, dimension=10,
            global_lr_schedule=lambda t: 0.5,
        )
        result = strategy.step(
            Cluster(ring_topology(2)),
            [rng.standard_normal(10) for _ in range(2)], 1,
        )
        assert np.isin(result.updates[0], (-0.5, 0.5)).all()


class TestQuickTrainExtras:
    def test_cli_module_importable(self):
        import repro.__main__ as cli

        parser = cli.build_parser()
        args = parser.parse_args(["--workers", "3"])
        assert args.workers == 3

    def test_version_exposed(self):
        import repro

        assert repro.__version__
