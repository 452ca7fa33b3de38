"""Smoke sizes of every workload, the output checks, and the CLI contract."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS, RoundClock, check_step, ring_one_bit_bytes

from .conftest import ROOT


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_workload_passes_checks_and_repeats(name):
    clock = RoundClock()
    first = WORKLOADS[name].run(3, clock, smoke=True)
    second = WORKLOADS[name].run(3, clock, smoke=True)
    assert first.failures == [] and first.failed == 0
    assert first.attempted > 0 and first.rounds_run > 0
    assert clock.setup_s and clock.round_s
    assert all(sample > 0 for sample in clock.setup_s + clock.round_s)
    assert first.fingerprint() == second.fingerprint()
    assert len(first.digest) == 64


def test_schemes_fold_into_one_setup_and_one_round_per_index():
    clock = RoundClock()
    WORKLOADS["schemes-torus-faulty"].run(3, clock, smoke=True, rounds=4)
    # Five schemes, four rounds each: the first round of each is set-up.
    assert len(clock.setup_s) == 1 and len(clock.round_s) == 3


def test_sync_input_pool_is_read_only_and_shared():
    from perfbench.workloads import _update_pool

    pool = _update_pool(3, 100)
    assert pool is _update_pool(3, 100)
    assert all(not updates.flags.writeable for updates in pool)


def test_seed_changes_outputs():
    clock = RoundClock()
    one = WORKLOADS["train-mlp-ring"].run(1, clock, smoke=True)
    two = WORKLOADS["train-mlp-ring"].run(2, clock, smoke=True)
    assert one.digest != two.digest


def test_check_step_rules():
    eta = 0.5
    good = np.array([0.5, -0.5, 0.5])
    assert check_step([good, good.copy()], eta) is None
    assert "different" in check_step([good, -good], eta)
    assert "eta" in check_step([good * 2, good * 2], eta)
    assert "non-finite" in check_step([good * np.nan, good], None)
    assert check_step([good * 3, good * 3], None) is None


def test_ring_one_bit_bytes_matches_measured_traffic():
    from repro.comm import Cluster
    from repro.comm.topology import ring_topology
    from repro.core import MarsitConfig, MarsitSynchronizer

    assert ring_one_bit_bytes(16, 1_000_000) == 2 * 15 * 16 * 7_813
    for workers, dimension in ((4, 1001), (5, 37)):
        synchronizer = MarsitSynchronizer(
            MarsitConfig(global_lr=0.1), workers, dimension
        )
        cluster = Cluster(ring_topology(workers))
        updates = np.random.default_rng(0).standard_normal((workers, dimension))
        synchronizer.synchronize(cluster, updates, 1)
        assert cluster.total_bytes == ring_one_bit_bytes(workers, dimension)


def _corrupt_sync(monkeypatch):
    from repro.core.marsit import MarsitSynchronizer

    original = MarsitSynchronizer.synchronize

    def corrupted(self, cluster, updates, round_idx):
        report = original(self, cluster, updates, round_idx)
        report.global_updates[-1] = report.global_updates[-1] * 2.0
        return report

    monkeypatch.setattr(MarsitSynchronizer, "synchronize", corrupted)


def test_failed_check_counts_every_round(monkeypatch):
    _corrupt_sync(monkeypatch)
    episode = WORKLOADS["sync-1m-ring"].run(3, RoundClock(), smoke=True)
    assert episode.failed == episode.attempted
    assert "different updates" in episode.failures[0]


def test_failed_check_makes_the_command_fail(monkeypatch, capsys):
    _corrupt_sync(monkeypatch)
    status = run.main(
        ["--workload", "train-mlp-ring", "--smoke", "--seconds", "0", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] > 0


def test_command_prints_every_metric():
    from perfbench.metrics import END_TO_END

    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "sync-1m-ring",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {metric.name for metric in END_TO_END}
    for metric in END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-mlp-ring",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
