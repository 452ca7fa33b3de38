"""Smoke tests for the scripts under ``examples/`` and the bench modules.

Every example and every ``benchmarks/bench_*.py`` module must import, so a
name deleted from the library fails here rather than at a full bench run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(p.stem for p in EXAMPLES.glob("*.py")))
def test_example_imports(name):
    _load(name)


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in (ROOT / "benchmarks").glob("bench_*.py"))
)
def test_benchmark_module_imports(name):
    importlib.import_module(f"benchmarks.{name}")


def test_topk_error_feedback_strategy_steps_on_a_ring():
    module = _load("custom_strategy")
    num, dimension, lr, momentum = 4, 40, 0.1, 0.9
    strategy = module.TopKErrorFeedbackStrategy(
        lr=lr, num_workers=num, k_fraction=0.1, momentum=momentum
    )
    cluster = Cluster(ring_topology(num))
    rng = np.random.default_rng(0)
    buffers = np.zeros((num, dimension))
    directions = np.zeros((num, dimension))
    applied = np.zeros(dimension)
    for round_idx in range(3):
        grads = [rng.standard_normal(dimension) for _ in range(num)]
        # The strategy consumes its input; the reference below reads grads.
        result = strategy.step(cluster, [g.copy() for g in grads], round_idx)
        assert len(result.updates) == num
        for update in result.updates:
            assert np.array_equal(update, result.updates[0])
        assert np.isfinite(result.updates[0]).all()
        assert np.count_nonzero(result.updates[0]) <= num * 4
        applied += result.updates[0]
        buffers = momentum * buffers + np.array(grads)
        directions += lr * buffers
    assert cluster.total_bytes > 0
    # Error feedback: what was applied plus what is still carried is the
    # momentum-smoothed total, averaged over workers.
    residual = strategy._feedback.residual
    assert np.allclose(applied + residual.mean(axis=0), directions.mean(axis=0))
