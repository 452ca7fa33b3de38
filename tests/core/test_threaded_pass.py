"""The compensation pass shared with a helper thread, and the transient
draw it overlaps.

``MarsitSynchronizer._compensate`` splits its column blocks between the
calling thread and one helper thread, and the calling thread draws the
round's transient table meanwhile.  Every result must equal the same round
built step by step in one thread: ``c -= g_t`` then ``c += g`` with numpy,
:func:`~repro.sched.executor.pack_grids`, the table drawn inline and
``run_one_bit``.  The helper is used only when the pass covers at least
``_HELPER_MIN_BYTES`` of ``c`` and the process may run on two CPUs.
"""

import copy

import numpy as np
import pytest

from repro.allreduce import get_topology
from repro.comm.cluster import Cluster
from repro.core import marsit
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.sched import get_executor
from repro.sched.executor import draw_transients, pack_grids
from repro.sched.plan import CompileContext

LR = 0.01
#: M = 4 rows of 60,001 columns: about 1.9 MB of ``c``, so two blocks.
NUM_WORKERS, DIMENSION = 4, 60_001


@pytest.fixture
def helper_calls(monkeypatch):
    """Count the rounds that hand blocks to the helper, on any host, with
    the helper taking passes of one block and more."""
    monkeypatch.setattr(marsit, "_cpus", lambda: 2)
    monkeypatch.setattr(marsit, "_HELPER_MIN_BYTES", marsit._BLOCK_BYTES)
    calls = []
    real = marsit._helper

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(marsit, "_helper", counted)
    return calls


def _round_inputs(rounds, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((NUM_WORKERS, DIMENSION)) for _ in range(rounds)]


class _Reference:
    """The one-bit round step by step on the calling thread."""

    def __init__(self, topology_name, build, seed):
        entry = get_topology(topology_name)
        topology = entry.build(NUM_WORKERS, **build)
        self.cluster = Cluster(topology)
        self.plan = entry.compile_one_bit(
            CompileContext(
                num_workers=NUM_WORKERS,
                dimension=DIMENSION,
                meta=dict(topology.meta),
            )
        )
        seeds = np.random.SeedSequence(seed).spawn(NUM_WORKERS)
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self.c = np.zeros((NUM_WORKERS, DIMENSION))
        self.g_t = None

    def round(self, updates, engine):
        if self.g_t is not None:
            self.c -= self.g_t
        self.c += updates
        table = draw_transients(self.plan, self.rngs)
        final = get_executor(engine).run_one_bit(
            self.plan, self.cluster, pack_grids(self.plan, self.c), table
        )
        self.g_t = LR * final.to_signs()
        return self.g_t


@pytest.mark.parametrize("read_c", [True, False], ids=["c-read", "c-pending"])
@pytest.mark.parametrize(
    "topology_name, build",
    [("ring", {}), ("torus", {"rows": 2, "cols": 2})],
    ids=["ring", "torus"],
)
@pytest.mark.parametrize("engine", ["batched", "scalar"])
def test_threaded_pass_matches_single_thread_reference(
    helper_calls, topology_name, build, engine, read_c
):
    seed = 5
    reference = _Reference(topology_name, build, seed)
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=LR, seed=seed, engine=engine),
        NUM_WORKERS,
        DIMENSION,
    )
    cluster = Cluster(reference.cluster.topology)
    for round_idx, updates in enumerate(_round_inputs(4), start=1):
        report = sync.synchronize(cluster, updates, round_idx)
        expected = reference.round(updates, engine)
        assert report.global_updates[0].tobytes() == expected.tobytes()
        assert [r.bit_generator.state for r in sync.rngs] == [
            r.bit_generator.state for r in reference.rngs
        ]
        if read_c:
            # Reading c applies the pending g_t, so the next pass has none.
            assert sync.state.compensation.tobytes() == (
                reference.c - reference.g_t
            ).tobytes()
    assert len(helper_calls) == 4
    final = sync.state.compensation
    assert final.tobytes() == (reference.c - reference.g_t).tobytes()
    assert cluster.total_bytes == reference.cluster.total_bytes


def test_a_failed_draw_voids_the_round_and_leaves_the_helper_idle(
    helper_calls, monkeypatch
):
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=LR, seed=2), NUM_WORKERS, DIMENSION
    )
    twin = copy.deepcopy(sync)
    cluster = Cluster(get_topology("ring").build(NUM_WORKERS))
    twin_cluster = Cluster(get_topology("ring").build(NUM_WORKERS))
    first, failed, after = _round_inputs(3, seed=9)
    sync.synchronize(cluster, first, 1)
    twin.synchronize(twin_cluster, first, 1)
    states = [r.bit_generator.state for r in sync.rngs]

    def broken(*args):
        raise RuntimeError("draw failed")

    monkeypatch.setattr(marsit, "draw_transients", broken)
    with pytest.raises(RuntimeError, match="draw failed"):
        sync.synchronize(cluster, failed, 2)
    # Round 1 of each synchronizer, then the failed round.
    assert len(helper_calls) == 3
    # The helper finished its blocks before the error came out.
    helper = marsit._HELPER
    assert helper._work_queue.empty()
    assert helper.submit(lambda: "idle").result(timeout=10) == "idle"
    assert [r.bit_generator.state for r in sync.rngs] == states
    # The voided round's updates were subtracted back out.
    np.testing.assert_allclose(
        sync.state.compensation, twin.state.compensation, rtol=0, atol=1e-12
    )

    monkeypatch.undo()
    report = sync.synchronize(cluster, after, 3)
    expected = twin.synchronize(twin_cluster, after, 3)
    assert report.global_updates[0].tobytes() == expected.global_updates[0].tobytes()
    assert set(np.unique(report.global_updates[0])) <= {-LR, LR}


@pytest.mark.parametrize(
    "num_workers, dimension, cpus",
    [(16, 2_410, 2), (16, 85_002, 2), (16, 1 << 18, 1)],
    ids=["trainer-size", "zoo-size", "one-cpu"],
)
def test_helper_not_started(monkeypatch, num_workers, dimension, cpus):
    """The quickstart MLP's D = 2,410 at M = 16 (perfbench's
    ``train-mlp-ring``) is about 300 KB of ``c``, under one block, and the
    D = 85,002 MLP (``schemes-torus-faulty``) about 11 MB, under
    ``_HELPER_MIN_BYTES``: both run on the calling thread alone, as does a
    32 MB pass in a one-CPU process."""
    assert num_workers * dimension * 8 >= marsit._HELPER_MIN_BYTES or cpus == 2
    monkeypatch.setattr(marsit, "_cpus", lambda: cpus)

    def forbidden():
        raise AssertionError("the helper thread was started")

    monkeypatch.setattr(marsit, "_helper", forbidden)
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=LR, seed=1, full_precision_every=3),
        num_workers,
        dimension,
    )
    cluster = Cluster(get_topology("ring").build(num_workers))
    rng = np.random.default_rng(0)
    for round_idx in range(1, 5):
        sync.synchronize(
            cluster, rng.standard_normal((num_workers, dimension)), round_idx
        )


def _helper_shares(rounds=3):
    """The ``marsit.pass_helper_share`` series of one-bit rounds at M = 4,
    D = 60,001 (about 1.9 MB of ``c``, several pass blocks)."""
    from repro.obs import Observability

    cluster = Cluster(get_topology("ring").build(NUM_WORKERS))
    cluster.attach_observability(Observability.metrics_only())
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=LR, seed=3), NUM_WORKERS, DIMENSION
    )
    for round_idx, updates in enumerate(_round_inputs(rounds), start=1):
        sync.synchronize(cluster, updates, round_idx)
    return cluster.obs.metrics.gauge("marsit.pass_helper_share").series


@pytest.mark.parametrize(
    "threshold, cpus",
    [(None, 2), (marsit._BLOCK_BYTES, 1)],
    ids=["below-threshold", "one-cpu"],
)
def test_pass_helper_share_is_zero_without_the_helper(monkeypatch, threshold, cpus):
    monkeypatch.setattr(marsit, "_cpus", lambda: cpus)
    if threshold is not None:
        monkeypatch.setattr(marsit, "_HELPER_MIN_BYTES", threshold)
    assert _helper_shares() == [0.0, 0.0, 0.0]


def test_pass_helper_share_counts_the_helpers_blocks(helper_calls, monkeypatch):
    import time

    real = marsit.draw_transients

    def slow_draw(*args):
        # Hold the calling thread long enough for the helper to take blocks.
        table = real(*args)
        time.sleep(0.05)
        return table

    monkeypatch.setattr(marsit, "draw_transients", slow_draw)
    shares = _helper_shares()
    assert len(helper_calls) == 3
    assert all(0.0 < share <= 1.0 for share in shares), shares
