"""Tests for the distributed trainer and metrics."""

import numpy as np
import pytest

from repro.data import mnist_like, train_test_split
from repro.nn.zoo import mlp
from repro.train import (
    CascadingSSDMStrategy,
    DistributedTrainer,
    EFSignSGDStrategy,
    MarsitStrategy,
    PowerSGDStrategy,
    PSGDStrategy,
    SignSGDMajorityStrategy,
    SSDMStrategy,
    TrainConfig,
    make_cluster,
)
from repro.train.metrics import RoundRecord, TrainResult, evaluate


@pytest.fixture(scope="module")
def tiny_data():
    data = mnist_like(num_samples=400, size=8, noise=0.5, seed=0)
    return train_test_split(data, 0.25, seed=1)


def factory():
    return mlp(64, hidden=(16,), num_classes=10, seed=7)


class TestTrainConfig:
    def test_torus_requires_shape(self):
        with pytest.raises(ValueError):
            TrainConfig(num_workers=4, rounds=10, topology="torus")

    def test_torus_shape_must_multiply(self):
        with pytest.raises(ValueError):
            TrainConfig(num_workers=4, rounds=10, topology="torus",
                        torus_shape=(2, 3))

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            TrainConfig(num_workers=2, rounds=10, topology="mesh")

    def test_make_cluster_topologies(self):
        ring = make_cluster(TrainConfig(num_workers=3, rounds=1))
        assert ring.topology.name == "ring" and ring.num_workers == 3
        torus = make_cluster(
            TrainConfig(num_workers=4, rounds=1, topology="torus",
                        torus_shape=(2, 2))
        )
        assert torus.topology.name == "torus"
        star = make_cluster(TrainConfig(num_workers=4, rounds=1, topology="star"))
        assert star.topology.name == "star" and star.num_workers == 4


class TestTraining:
    def test_psgd_learns(self, tiny_data):
        train, test = tiny_data
        config = TrainConfig(num_workers=3, rounds=60, batch_size=16,
                             eval_every=20, seed=0)
        strategy = PSGDStrategy(lr=0.05, num_workers=3)
        result = DistributedTrainer(factory, train, test, strategy, config).run()
        assert not result.diverged
        assert result.final_accuracy > 0.5
        assert result.rounds_run == 60

    def test_history_recorded(self, tiny_data):
        train, test = tiny_data
        config = TrainConfig(num_workers=2, rounds=21, batch_size=16,
                             eval_every=10, seed=0)
        result = DistributedTrainer(
            factory, train, test, PSGDStrategy(lr=0.05, num_workers=2), config
        ).run()
        rounds = [record.round_idx for record in result.history]
        assert rounds == [0, 10, 20]
        # monotone accounting
        times = [record.sim_time_s for record in result.history]
        bytes_ = [record.comm_bytes for record in result.history]
        assert times == sorted(times)
        assert bytes_ == sorted(bytes_)

    def test_divergence_detection(self, tiny_data):
        train, test = tiny_data
        config = TrainConfig(num_workers=2, rounds=200, batch_size=16,
                             eval_every=50, seed=0, divergence_loss=1e3)
        strategy = PSGDStrategy(lr=50.0, num_workers=2)  # absurd LR
        result = DistributedTrainer(factory, train, test, strategy, config).run()
        assert result.diverged
        assert result.rounds_run < 200

    def test_marsit_trains_end_to_end(self, tiny_data):
        train, test = tiny_data
        dimension = factory().num_parameters()
        config = TrainConfig(num_workers=4, rounds=80, batch_size=16,
                             eval_every=20, seed=0)
        strategy = MarsitStrategy(local_lr=0.05, global_lr=4e-3, num_workers=4,
                                  dimension=dimension)
        result = DistributedTrainer(factory, train, test, strategy, config).run()
        assert not result.diverged
        assert result.best_accuracy() > 0.5
        assert result.avg_bits_per_element == pytest.approx(1.0)

    def test_time_breakdown_has_three_phases(self, tiny_data):
        train, test = tiny_data
        config = TrainConfig(num_workers=2, rounds=5, batch_size=16, seed=0)
        result = DistributedTrainer(
            factory, train, test, PSGDStrategy(lr=0.05, num_workers=2), config
        ).run()
        assert set(result.time_breakdown_s) == {
            "computation", "compression", "communication"
        }
        assert result.time_breakdown_s["computation"] > 0
        assert result.time_breakdown_s["communication"] > 0

    def test_deterministic_given_seed(self, tiny_data):
        train, test = tiny_data
        def run():
            config = TrainConfig(num_workers=2, rounds=15, batch_size=16,
                                 eval_every=5, seed=3)
            return DistributedTrainer(
                factory, train, test,
                PSGDStrategy(lr=0.05, num_workers=2), config,
            ).run()

        a, b = run(), run()
        assert a.final_accuracy == b.final_accuracy
        assert a.total_comm_bytes == b.total_comm_bytes


class TestMetrics:
    def test_evaluate_restores_train_mode(self, tiny_data):
        train, test = tiny_data
        model = factory()
        accuracy, loss = evaluate(model, test)
        assert 0.0 <= accuracy <= 1.0
        assert np.isfinite(loss)
        assert model.training

    def test_evaluate_max_batches(self, tiny_data):
        _, test = tiny_data
        model = factory()
        accuracy, _ = evaluate(model, test, batch_size=10, max_batches=2)
        assert 0.0 <= accuracy <= 1.0

    def test_result_round_queries(self):
        result = TrainResult(strategy_name="x")
        result.history = [
            RoundRecord(0, 1.0, 100, 2.0, 0.3, 2.0, 32.0),
            RoundRecord(10, 2.0, 200, 1.0, 0.6, 1.0, 32.0),
            RoundRecord(20, 3.0, 300, 0.5, 0.9, 0.5, 32.0),
        ]
        assert result.rounds_to_accuracy(0.5) == 10
        assert result.time_to_accuracy(0.5) == 2.0
        assert result.bytes_to_accuracy(0.85) == 300
        assert result.rounds_to_accuracy(0.99) is None
        assert result.best_accuracy() == 0.9


class TestSharding:
    def test_dirichlet_sharding_runs(self, tiny_data):
        train, test = tiny_data
        config = TrainConfig(num_workers=3, rounds=5, batch_size=8,
                             eval_every=5, seed=0, sharding="dirichlet",
                             dirichlet_alpha=0.5)
        result = DistributedTrainer(
            factory, train, test, PSGDStrategy(lr=0.05, num_workers=3), config
        ).run()
        assert result.rounds_run == 5

    def test_rejects_unknown_sharding(self):
        with pytest.raises(ValueError):
            TrainConfig(num_workers=2, rounds=5, sharding="sorted")

    def test_tree_topology_trains(self, tiny_data):
        train, test = tiny_data
        dimension = factory().num_parameters()
        config = TrainConfig(num_workers=5, rounds=5, batch_size=8,
                             eval_every=5, seed=0, topology="tree")
        strategy = MarsitStrategy(local_lr=0.05, global_lr=4e-3,
                                  num_workers=5, dimension=dimension)
        result = DistributedTrainer(factory, train, test, strategy, config).run()
        assert result.rounds_run == 5


class TestByzantineWorkers:
    def test_sign_flips_applied(self, tiny_data):
        train, test = tiny_data
        config = TrainConfig(num_workers=3, rounds=1, batch_size=16, seed=0,
                             byzantine_workers=1)
        trainer = DistributedTrainer(
            factory, train, test, PSGDStrategy(lr=0.05, num_workers=3), config
        )
        honest = DistributedTrainer(
            factory, train, test, PSGDStrategy(lr=0.05, num_workers=3),
            TrainConfig(num_workers=3, rounds=1, batch_size=16, seed=0),
        )
        bad, _ = trainer._worker_gradients()
        good, _ = honest._worker_gradients()
        assert np.allclose(bad[0], -10.0 * good[0])
        assert np.allclose(bad[1], good[1])

    def test_majority_vote_tolerates_minority(self, tiny_data):
        from repro.train import SignSGDMajorityStrategy

        train, test = tiny_data
        config = TrainConfig(num_workers=5, rounds=60, batch_size=16,
                             eval_every=20, seed=0, byzantine_workers=1)
        strategy = SignSGDMajorityStrategy(lr=0.002, num_workers=5)
        result = DistributedTrainer(factory, train, test, strategy, config).run()
        assert result.best_accuracy() > 0.6  # still learns under attack

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            TrainConfig(num_workers=3, rounds=1, byzantine_workers=4)


class TestLocalSteps:
    def test_local_steps_reduce_sync_frequency(self, tiny_data):
        # At equal total compute (rounds x local_steps), the multi-step run
        # communicates fewer bytes.
        train, test = tiny_data

        def run(rounds, local_steps):
            config = TrainConfig(num_workers=3, rounds=rounds, batch_size=16,
                                 eval_every=rounds, seed=0,
                                 local_steps=local_steps, local_step_lr=0.05)
            return DistributedTrainer(
                factory, train, test,
                PSGDStrategy(lr=0.05, num_workers=3), config,
            ).run()

        single = run(rounds=20, local_steps=1)
        multi = run(rounds=5, local_steps=4)
        assert multi.total_comm_bytes == single.total_comm_bytes / 4
        assert multi.best_accuracy() > 0.2  # still learns

    def test_parameters_restored_between_workers(self, tiny_data):
        train, test = tiny_data
        config = TrainConfig(num_workers=2, rounds=1, batch_size=16, seed=0,
                             local_steps=3, local_step_lr=0.05)
        trainer = DistributedTrainer(
            factory, train, test, PSGDStrategy(lr=0.05, num_workers=2), config
        )
        before = trainer.model.flatten_params()
        trainer._worker_gradients()
        assert np.array_equal(trainer.model.flatten_params(), before)

    def test_computation_charged_per_step(self, tiny_data):
        train, test = tiny_data

        def comp_time(local_steps):
            config = TrainConfig(num_workers=2, rounds=2, batch_size=16,
                                 seed=0, local_steps=local_steps,
                                 eval_every=2)
            result = DistributedTrainer(
                factory, train, test,
                PSGDStrategy(lr=0.05, num_workers=2), config,
            ).run()
            return result.time_breakdown_s["computation"]

        assert comp_time(4) == pytest.approx(4 * comp_time(1))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TrainConfig(num_workers=2, rounds=1, local_steps=0)
        with pytest.raises(ValueError):
            TrainConfig(num_workers=2, rounds=1, local_step_lr=0.0)


class TestGradientMatrix:
    """Gradients land in one ``(M, D)`` matrix that every round reuses."""

    def test_rows_are_views_of_one_reused_matrix(self, tiny_data):
        train, test = tiny_data
        config = TrainConfig(num_workers=3, rounds=1, batch_size=16, seed=0)
        trainer = DistributedTrainer(
            factory, train, test, PSGDStrategy(lr=0.05, num_workers=3), config
        )
        first, _ = trainer._worker_gradients()
        before = first.copy()
        second, _ = trainer._worker_gradients()
        assert second is first
        assert first.shape == (3, trainer.model.num_parameters())
        assert not np.array_equal(first, before)  # overwritten in place

    @pytest.mark.parametrize("local_steps", [1, 3])
    def test_backward_accumulates_into_the_rows(self, tiny_data, local_steps):
        # Parameter gradients are views of the row being computed; the rows
        # must equal those of zero_grad + backward + flatten_grads.
        train, test = tiny_data
        config = TrainConfig(num_workers=3, rounds=1, batch_size=16, seed=0,
                             local_steps=local_steps, clip_grad_norm=5.0)

        def build():
            return DistributedTrainer(
                factory, train, test, PSGDStrategy(lr=0.05, num_workers=3), config
            )

        trainer, flattened = build(), build()
        flattened._row_views = flattened._step_views = None
        for _ in range(2):
            rows, loss = trainer._worker_gradients()
            want, want_loss = flattened._worker_gradients()
            assert rows.tobytes() == want.tobytes()
            assert loss == want_loss
        last = trainer._grads[2] if local_steps == 1 else trainer._step_grad
        for param in trainer.model.parameters():
            assert np.shares_memory(param.grad, last)
        for param in flattened.model.parameters():
            assert not np.shares_memory(param.grad, flattened._grads)

    def test_tied_parameters_fall_back_to_flattening(self, tiny_data):
        from repro.nn.module import Module

        class Tied(Module):
            def __init__(self):
                super().__init__()
                self.body = factory()
                self.alias = self.body.parameters()[1]  # registered twice

            def forward(self, x):
                return self.body(x)

            def backward(self, grad):
                return self.body.backward(grad)

        train, test = tiny_data
        config = TrainConfig(num_workers=2, rounds=1, batch_size=16, seed=0)
        trainer = DistributedTrainer(
            Tied, train, test, PSGDStrategy(lr=0.05, num_workers=2), config
        )
        assert trainer._row_views is None
        rows, _ = trainer._worker_gradients()
        alias = trainer.model.alias.size
        offset = trainer.model.body.parameters()[0].size
        # Both slices of the tied parameter carry its gradient.
        for row in rows:
            assert np.any(row[:alias] != 0.0)
            assert row[:alias].tobytes() == row[
                alias + offset : 2 * alias + offset
            ].tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda dim: PSGDStrategy(lr=0.05, num_workers=3),
            lambda dim: SignSGDMajorityStrategy(lr=0.002, num_workers=3),
            lambda dim: EFSignSGDStrategy(lr=0.05, num_workers=3),
            lambda dim: SSDMStrategy(lr=0.03, num_workers=3),
            lambda dim: CascadingSSDMStrategy(lr=0.03, num_workers=3),
            lambda dim: PowerSGDStrategy(lr=0.05, num_workers=3),
            lambda dim: MarsitStrategy(
                0.05, 4e-3, 3, dim, full_precision_every=2
            ),
        ],
        ids=["psgd", "signsgd", "ef", "ssdm", "cascading", "powersgd", "marsit"],
    )
    def test_no_strategy_keeps_the_rows_past_step(self, tiny_data, make):
        import gc
        import sys

        train, test = tiny_data
        strategy = make(factory().num_parameters())
        held = []
        step = strategy.step

        def watched(cluster, grads, round_idx):
            # The trainer hands over its matrix; a row view kept anywhere
            # past ``step`` holds a reference to it.
            assert isinstance(grads, np.ndarray) and grads.ndim == 2
            before = sys.getrefcount(grads)
            result = step(cluster, grads, round_idx)
            gc.collect()
            held.append(sys.getrefcount(grads) - before)
            return result

        strategy.step = watched
        config = TrainConfig(num_workers=3, rounds=4, batch_size=16,
                             eval_every=4, seed=0)
        DistributedTrainer(factory, train, test, strategy, config).run()
        assert held == [0, 0, 0, 0]



class TestFreeHeap:
    """A trainer hands the C heap's free pages back before it builds anything."""

    def test_trims_before_building_the_model(self, tiny_data, monkeypatch):
        from repro.train import trainer as trainer_module

        calls = []
        monkeypatch.setattr(
            trainer_module, "_malloc_trim", lambda: lambda pad: calls.append(pad)
        )

        def watched_factory():
            calls.append("model")
            return factory()

        train, test = tiny_data
        config = TrainConfig(num_workers=2, rounds=2, batch_size=16, seed=0)
        strategy = PSGDStrategy(lr=0.05, num_workers=2)
        DistributedTrainer(watched_factory, train, test, strategy, config).run()
        assert calls == [0, "model"]

    def test_runs_where_the_c_library_has_no_trim(self, tiny_data, monkeypatch):
        from repro.train import trainer as trainer_module

        monkeypatch.setattr(trainer_module, "_malloc_trim", lambda: None)
        train, test = tiny_data
        config = TrainConfig(num_workers=2, rounds=2, batch_size=16, seed=0)
        strategy = PSGDStrategy(lr=0.05, num_workers=2)
        result = DistributedTrainer(factory, train, test, strategy, config).run()
        assert result.rounds_run == 2

    def test_freed_heap_pages_leave_resident_memory(self):
        # In a fresh interpreter: freeing a 16 MB array lifts glibc's mmap
        # threshold, so 1 MB arrays then come from the heap.  All but the
        # last are freed; the live one above them keeps the heap from
        # shrinking, so their ~63 MB stay resident until the trim.
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.train.trainer import _malloc_trim

        if _malloc_trim() is None or not os.path.exists("/proc/self/statm"):
            pytest.skip("needs glibc's malloc_trim and /proc")
        probe = (
            "import os, numpy as np\n"
            "from repro.train.trainer import _release_free_heap\n"
            "def rss():\n"
            "    with open('/proc/self/statm') as f:\n"
            "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "big = np.ones(2 << 20); del big\n"
            "blocks = [np.ones(1 << 17) for _ in range(64)]\n"
            "del blocks[:-1]\n"
            "before = rss(); _release_free_heap(); after = rss()\n"
            "print((before - after) >> 20)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, check=True,
        )
        assert int(out.stdout) >= 48, out.stdout
