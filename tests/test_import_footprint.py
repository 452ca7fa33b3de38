"""``import repro`` stays light: numpy is the only runtime dependency.

Nothing in the simulator needs ``scipy`` or ``networkx``: topologies are
plain edge tables and the dataset blur is numpy.  Loading the two would
cost about 35 MB of baseline resident memory in every process, benchmarks
included.  The checks run in a fresh interpreter so modules other tests
imported do not mask them; the last one blocks both packages outright and
trains every Table 2 scheme under faults.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_repro_does_not_load_scipy_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    probe = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout


def test_import_repro_loads_neither_scipy_nor_networkx():
    probe = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'networkx')))"
    )
    assert _run(probe) == "[]"


_BLOCKED_RUN = textwrap.dedent(
    """
    import sys

    class Blocked:
        # Any scipy or networkx import fails, as in an install without them.
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in ("scipy", "networkx"):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, Blocked())

    import numpy as np

    import repro
    from repro import (
        DistributedTrainer,
        EFSignSGDStrategy,
        MarsitStrategy,
        PSGDStrategy,
        SSDMStrategy,
        SignSGDMajorityStrategy,
        TrainConfig,
    )
    from repro.comm import Cluster
    from repro.comm.topology import ring_topology
    from repro.core import MarsitConfig, MarsitSynchronizer
    from repro.data import mnist_like, train_test_split
    from repro.faults import BitFlip, FaultPlan, LinkJitter, MessageDrop, Straggler
    from repro.nn.zoo import mlp

    train_set, test_set = train_test_split(
        mnist_like(num_samples=240, size=8, seed=1), 0.25, seed=1
    )

    def factory():
        return mlp(64, hidden=(16,), num_classes=10, seed=1)

    dimension = factory().num_parameters()
    schemes = {
        "psgd": lambda: PSGDStrategy(lr=0.05, num_workers=6),
        "signsgd": lambda: SignSGDMajorityStrategy(lr=0.002, num_workers=6),
        "ef-signsgd": lambda: EFSignSGDStrategy(lr=0.05, num_workers=6),
        "ssdm": lambda: SSDMStrategy(lr=0.03, num_workers=6, seed=1),
        "marsit-2": lambda: MarsitStrategy(
            0.05, 8e-3, 6, dimension, full_precision_every=2, seed=1
        ),
        "marsit": lambda: MarsitStrategy(0.05, 8e-3, 6, dimension, seed=1),
    }
    for name, build in schemes.items():
        plan = FaultPlan(
            seed=3,
            events=(
                LinkJitter(sigma=0.25),
                Straggler(worker=2, factor=2.0),
                MessageDrop(prob=0.05, mode="retry"),
                BitFlip(prob=1e-3),
            ),
        )
        config = TrainConfig(
            num_workers=6, rounds=3, batch_size=8, topology="torus",
            torus_shape=(2, 3), eval_every=3, seed=1, faults=plan,
        )
        result = DistributedTrainer(
            factory, train_set, test_set, build(), config
        ).run()
        assert result.rounds_run == 3 and not result.diverged, name

    sync = MarsitSynchronizer(MarsitConfig(global_lr=1e-3, seed=1), 4, 100)
    updates = np.random.default_rng(1).standard_normal((4, 100))
    report = sync.synchronize(Cluster(ring_topology(4)), updates, 0)
    assert report.bits_per_element == 1.0
    loaded = [m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")]
    assert not loaded, loaded
    print("ok")
    """
)


def test_table2_schemes_run_with_scipy_and_networkx_blocked():
    assert _run(_BLOCKED_RUN) == "ok"
