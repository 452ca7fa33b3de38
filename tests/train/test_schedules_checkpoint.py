"""Tests for LR schedules, checkpointing, grad clipping, and the CLI."""

import numpy as np
import pytest

from repro.train.schedules import constant, cosine_decay, step_decay, warmup


class TestSchedules:
    def test_constant(self):
        schedule = constant()
        assert schedule(0) == schedule(1000) == 1.0

    def test_step_decay(self):
        schedule = step_decay(period=10, factor=0.1)
        assert schedule(0) == 1.0
        assert schedule(9) == 1.0
        assert schedule(10) == pytest.approx(0.1)
        assert schedule(25) == pytest.approx(0.01)

    def test_cosine_endpoints(self):
        schedule = cosine_decay(total_rounds=100, floor=0.1)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(100) == pytest.approx(0.1)
        assert schedule(50) == pytest.approx(0.55)

    def test_cosine_clamps_past_end(self):
        schedule = cosine_decay(total_rounds=10)
        assert schedule(1000) == pytest.approx(0.0)

    def test_warmup_ramp(self):
        schedule = warmup(warmup_rounds=4)
        assert schedule(0) == pytest.approx(0.25)
        assert schedule(3) == pytest.approx(1.0)
        assert schedule(10) == 1.0

    def test_warmup_then_decay(self):
        schedule = warmup(4, after=step_decay(10, 0.5))
        assert schedule(4) == 1.0  # decay clock restarts post-warmup
        assert schedule(14) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            step_decay(0)
        with pytest.raises(ValueError):
            cosine_decay(0)
        with pytest.raises(ValueError):
            warmup(0)

    def test_drives_marsit_config(self):
        from repro.core.marsit import MarsitConfig

        config = MarsitConfig(global_lr=0.1,
                              global_lr_schedule=step_decay(5, 0.1))
        assert config.effective_global_lr(0) == pytest.approx(0.1)
        assert config.effective_global_lr(5) == pytest.approx(0.01)


class TestCheckpoint:
    def test_model_roundtrip(self, tmp_path, rng):
        from repro.nn.zoo import resnet18_mini
        from repro.train.checkpoint import load_model, save_checkpoint

        model = resnet18_mini(in_channels=1, image_size=8, num_classes=3, seed=1)
        x = rng.standard_normal((2, 1, 8, 8))
        model(x)  # populate BN running stats
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, round_idx=42)

        fresh = resnet18_mini(in_channels=1, image_size=8, num_classes=3, seed=9)
        assert not np.allclose(fresh.flatten_params(), model.flatten_params())
        round_idx = load_model(path, fresh)
        assert round_idx == 42
        assert np.allclose(fresh.flatten_params(), model.flatten_params())
        fresh.eval()
        model.eval()
        assert np.allclose(fresh(x), model(x))

    def test_synchronizer_state_roundtrip(self, tmp_path, rng):
        from repro.comm.cluster import Cluster
        from repro.comm.topology import ring_topology
        from repro.core.marsit import MarsitConfig, MarsitSynchronizer
        from repro.nn.zoo import mlp
        from repro.train.checkpoint import (
            load_synchronizer_state,
            save_checkpoint,
        )

        model = mlp(8, hidden=(4,), num_classes=2, seed=0)
        sync = MarsitSynchronizer(MarsitConfig(global_lr=0.1), 3, 10)
        sync.synchronize(
            Cluster(ring_topology(3)),
            [rng.standard_normal(10) for _ in range(3)], 1,
        )
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, synchronizer=sync)

        fresh = MarsitSynchronizer(MarsitConfig(global_lr=0.1), 3, 10)
        load_synchronizer_state(path, fresh)
        for a, b in zip(fresh.state.compensation, sync.state.compensation):
            assert np.array_equal(a, b)

    def test_save_while_g_t_is_pending_then_continue(self, tmp_path, rng):
        import copy

        from repro.comm.cluster import Cluster
        from repro.comm.topology import ring_topology
        from repro.core.marsit import MarsitConfig, MarsitSynchronizer
        from repro.nn.zoo import mlp
        from repro.train.checkpoint import (
            load_synchronizer_state,
            save_checkpoint,
        )

        num_workers, dimension = 4, 150

        def synchronizer():
            return MarsitSynchronizer(
                MarsitConfig(global_lr=0.1, seed=6, full_precision_every=7),
                num_workers,
                dimension,
            )

        updates = [
            rng.standard_normal((num_workers, dimension)) for _ in range(10)
        ]
        # ``saved`` is checkpointed mid-run; its twin runs the same rounds and
        # is never read, so its g_t stays pending from round 4 onwards.
        saved, twin = synchronizer(), synchronizer()
        saved_cluster = Cluster(ring_topology(num_workers))
        twin_cluster = Cluster(ring_topology(num_workers))
        for round_idx in range(1, 5):
            saved.synchronize(saved_cluster, updates[round_idx], round_idx)
            twin.synchronize(twin_cluster, updates[round_idx], round_idx)
        assert saved.state._pending is not None
        path = tmp_path / "ckpt.npz"
        save_checkpoint(
            path, mlp(8, hidden=(4,), num_classes=2, seed=0),
            synchronizer=saved, round_idx=4,
        )

        loaded = synchronizer()
        load_synchronizer_state(path, loaded)
        # Checkpoints hold the compensation, not the generators.
        loaded.rngs = copy.deepcopy(twin.rngs)
        loaded_cluster = Cluster(ring_topology(num_workers))
        for round_idx in range(5, 10):
            got = loaded.synchronize(loaded_cluster, updates[round_idx], round_idx)
            want = twin.synchronize(twin_cluster, updates[round_idx], round_idx)
            assert got.global_updates[0].tobytes() == (
                want.global_updates[0].tobytes()
            )
        assert loaded.state.compensation.tobytes() == (
            twin.state.compensation.tobytes()
        )

    def test_architecture_mismatch_rejected(self, tmp_path):
        from repro.nn.zoo import mlp
        from repro.train.checkpoint import load_model, save_checkpoint

        model = mlp(8, hidden=(4,), num_classes=2, seed=0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model)
        other = mlp(8, hidden=(5,), num_classes=2, seed=0)
        with pytest.raises(ValueError):
            load_model(path, other)


class TestGradClipping:
    def test_clip_bounds_gradient_norm(self):
        from repro.data import mnist_like, train_test_split
        from repro.nn.zoo import mlp
        from repro.train import DistributedTrainer, PSGDStrategy, TrainConfig

        data = mnist_like(num_samples=200, size=8, seed=0)
        train, test = train_test_split(data, 0.25, seed=1)

        def factory():
            return mlp(64, hidden=(8,), num_classes=10, seed=7)

        config = TrainConfig(num_workers=2, rounds=1, batch_size=16, seed=0,
                             clip_grad_norm=0.01)
        trainer = DistributedTrainer(
            factory, train, test, PSGDStrategy(lr=0.1, num_workers=2), config
        )
        grads, _ = trainer._worker_gradients()
        for grad in grads:
            assert np.linalg.norm(grad) <= 0.01 + 1e-9

    def test_rejects_nonpositive_clip(self):
        from repro.train import TrainConfig

        with pytest.raises(ValueError):
            TrainConfig(num_workers=2, rounds=1, clip_grad_norm=0.0)


class TestCLI:
    def test_main_runs(self, capsys):
        from repro.__main__ import main

        code = main(["--strategy", "psgd", "--workers", "2", "--rounds", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "final accuracy" in out

    def test_parser_rejects_unknown_strategy(self):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--strategy", "fedavg"])


class TestStragglerLinks:
    def test_slow_link_stalls_step(self):
        from repro.comm.cluster import Cluster
        from repro.comm.timing import CostModel
        from repro.comm.topology import ring_topology
        from repro.faults import FaultInjector, FaultPlan, Straggler

        model = CostModel(latency_s=0.0, bandwidth_Bps=1e3)
        fast = Cluster(ring_topology(3), cost_model=model)
        slow = Cluster(ring_topology(3), cost_model=model)
        # Worker 0 slows link 0->1 tenfold; link 1->2 stays fast.
        injector = FaultInjector(
            FaultPlan(events=(Straggler(worker=0, factor=10.0),))
        )
        slow.attach_faults(injector)
        injector.begin_round(0)
        for cluster in (fast, slow):
            cluster.begin_step()
            cluster.send(0, 1, np.zeros(100, dtype=np.uint8))
            cluster.send(1, 2, np.zeros(100, dtype=np.uint8))
            cluster.end_step()
            cluster.recv(1, 0)
            cluster.recv(2, 1)
        fast_time = fast.timeline.total
        slow_time = slow.timeline.total
        assert slow_time == pytest.approx(10 * fast_time)


class TestAsciiPlot:
    def test_renders_grid(self):
        from repro.bench.reporting import ascii_plot

        text = ascii_plot(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20, height=8,
        )
        assert "o" in text and "x" in text
        assert "o=a" in text and "x=b" in text

    def test_y_range_override(self):
        from repro.bench.reporting import ascii_plot

        text = ascii_plot({"a": [(0, 0.5)]}, y_range=(0.0, 1.0), width=10,
                          height=5)
        assert text.splitlines()[0].strip().startswith("1")

    def test_rejects_empty(self):
        from repro.bench.reporting import ascii_plot

        with pytest.raises(ValueError):
            ascii_plot({})
