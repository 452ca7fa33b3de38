"""The synchronizer's in-place buffers, checked against fresh-array formulas.

``MarsitSynchronizer`` keeps one ``(M, D)`` compensation buffer for its whole
life: line 1 of Algorithm 1 adds the updates into it and line 10 subtracts
the global update from it (deferred to the next round's pass, or to the
next read of ``state.compensation``), and every one-bit report shares one
read-only global update.  :class:`FreshArraySynchronizer` below is the same round
written with a fresh matrix for every step (``np.stack(u) + c``,
``c - g_t``, one copy of ``g_t`` per worker); the two must agree bit for
bit on outputs, compensation, traffic and metrics.
"""

import tracemalloc

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology, torus_topology
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.faults import FaultInjector, FaultPlan, MessageDrop, WorkerCrash
from repro.obs import Observability
from repro.sched.executor import draw_transients, pack_grids


class FreshArraySynchronizer(MarsitSynchronizer):
    """Algorithm 1 with a freshly allocated matrix for every step."""

    def synchronize(self, cluster, updates, round_idx):
        faults = cluster.faults
        if faults is not None:
            faults.begin_round(round_idx)
            crashed = faults.take_new_crashes()
            if crashed:
                self._recover(cluster, crashed, faults)
        compensated = (
            np.stack([np.asarray(u, dtype=np.float64) for u in updates])
            + self.state.compensation
        )
        active = self._active
        degraded = len(active) != self.num_workers
        vectors = compensated[active] if degraded else compensated
        full_precision = (
            self.config.is_full_precision_round(round_idx) or self._forced_fp
        )
        self._forced_fp = False
        shape = (self.num_workers, self.dimension)
        if full_precision:
            outputs, _, _ = self._full_precision_sync(cluster, vectors)
            self.state.compensation = np.zeros(shape)
            if degraded:
                global_updates = [outputs[0].copy()] * self.num_workers
                for pos, rank in enumerate(active):
                    global_updates[rank] = outputs[pos]
            else:
                global_updates = outputs
            gauges = {}
        else:
            if len(active) == 1:
                signs = np.where(vectors[0] >= 0, 1.0, -1.0)
            else:
                compiled = self._plan_for(cluster, "one_bit")
                plan = compiled[0]
                rngs = [self.rngs[rank] for rank in active]
                signs, _, _ = self._one_bit_sync(
                    cluster, compiled, pack_grids(plan, vectors),
                    draw_transients(plan, rngs), 1.0,
                )
            global_update = self.config.effective_global_lr(round_idx) * signs
            if self.config.use_compensation:
                compensation = compensated - global_update
                if degraded:
                    compensation[self._inactive] = 0.0
                self.state.compensation = compensation
            else:
                self.state.compensation = np.zeros(shape)
            global_updates = [global_update.copy() for _ in range(self.num_workers)]
            mean_sign = np.where(vectors.mean(axis=0) >= 0, 1.0, -1.0)
            gauges = {
                "marsit.sign_agreement": float(np.mean(signs == mean_sign))
            }
        gauges["marsit.comp_norm"] = float(
            np.mean(np.linalg.norm(self.state.compensation[active], axis=1))
        )
        return global_updates, full_precision, gauges


def _updates(rng, num_workers, dimension):
    return [rng.standard_normal(dimension) for _ in range(num_workers)]


def _pair(topology_fn, num_workers, dimension, plan=None, obs=None, **config):
    """(cluster, synchronizer) for the in-place and the fresh-array round."""
    pairs = []
    for cls in (MarsitSynchronizer, FreshArraySynchronizer):
        cluster = Cluster(
            topology_fn(), obs=obs() if obs is not None else None
        )
        if plan is not None:
            cluster.attach_faults(FaultInjector(plan))
        sync = cls(
            MarsitConfig(global_lr=0.05, seed=4, **config),
            num_workers,
            dimension,
        )
        pairs.append((cluster, sync))
    return pairs


def _assert_rounds_identical(
    pairs, rounds, num_workers, dimension, seed=0, read_every_round=True
):
    """Run both synchronizers in lockstep and compare every output.

    Reading ``state.compensation`` applies the pending ``g_t``, so with
    ``read_every_round=False`` the in-place synchronizer's buffer is read
    only after the last round, and every round in between takes the
    deferred path.
    """
    (cluster, sync), (ref_cluster, ref_sync) = pairs
    rng = np.random.default_rng(seed)
    for round_idx in range(rounds):
        updates = _updates(rng, num_workers, dimension)
        report = sync.synchronize(cluster, updates, round_idx)
        expected, full_precision, _ = ref_sync.synchronize(
            ref_cluster, updates, round_idx
        )
        assert report.full_precision == full_precision
        assert len(report.global_updates) == len(expected) == num_workers
        for got, want in zip(report.global_updates, expected):
            assert got.tobytes() == want.tobytes()
        if read_every_round or round_idx == rounds - 1:
            assert (
                sync.state.compensation.tobytes()
                == ref_sync.state.compensation.tobytes()
            )
        assert cluster.total_bytes == ref_cluster.total_bytes
        assert cluster.timeline.seconds == ref_cluster.timeline.seconds


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_k_sync_over_thirty_rounds(self, engine):
        pairs = _pair(
            lambda: ring_topology(5), 5, 257,
            full_precision_every=5, engine=engine,
        )
        _assert_rounds_identical(pairs, 30, 5, 257)

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_torus(self, engine):
        pairs = _pair(
            lambda: torus_topology(2, 3), 6, 101,
            full_precision_every=4, engine=engine,
        )
        _assert_rounds_identical(pairs, 9, 6, 101)

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_without_compensation(self, engine):
        pairs = _pair(
            lambda: ring_topology(4), 4, 130,
            full_precision_every=5, use_compensation=False, engine=engine,
        )
        _assert_rounds_identical(pairs, 12, 4, 130)
        assert not pairs[0][1].state.compensation.any()

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_worker_crash_degraded_path(self, engine):
        plan = FaultPlan(seed=3, events=(WorkerCrash(worker=2, round_idx=3),))
        pairs = _pair(
            lambda: ring_topology(6), 6, 257, plan=plan,
            full_precision_every=5, engine=engine,
        )
        _assert_rounds_identical(pairs, 12, 6, 257)
        sync = pairs[0][1]
        assert sync.active_workers == [0, 1, 3, 4, 5]
        assert not sync.state.compensation[2].any()


class TestPendingPath:
    """The same identities with ``c`` read only after the last round."""

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_k_sync_over_thirty_rounds(self, engine):
        pairs = _pair(
            lambda: ring_topology(5), 5, 257,
            full_precision_every=5, engine=engine,
        )
        _assert_rounds_identical(pairs, 30, 5, 257, read_every_round=False)

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_without_compensation(self, engine):
        pairs = _pair(
            lambda: ring_topology(4), 4, 130,
            use_compensation=False, engine=engine,
        )
        _assert_rounds_identical(pairs, 12, 4, 130, read_every_round=False)
        assert not pairs[0][1].state.compensation.any()

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_worker_crash_leaves_dead_rows_exactly_zero(self, engine):
        # No K-sync: after the crash's forced full-precision round every
        # round is one-bit and degraded, so g_t stays pending over the
        # survivors' rows only.
        plan = FaultPlan(seed=5, events=(WorkerCrash(worker=1, round_idx=4),))
        pairs = _pair(
            lambda: torus_topology(2, 3), 6, 211, plan=plan, engine=engine,
        )
        _assert_rounds_identical(pairs, 12, 6, 211, read_every_round=False)
        sync = pairs[0][1]
        assert sync.active_workers == [0, 2, 3, 4, 5]
        compensation = sync.state.compensation
        assert not compensation[1].any()
        assert not np.signbit(compensation[1]).any()
        assert compensation[[0, 2, 3, 4, 5]].any()

    def test_terminal_fault_right_after_a_one_bit_round(self):
        # Round 1 leaves its g_t pending; round 2 folds it into its pass and
        # then aborts.  The restore must land on the materialized c of round
        # 1, which the fresh-array reference holds explicitly.
        plan = FaultPlan(
            seed=4,
            events=(
                MessageDrop(
                    prob=1.0,
                    links=((0, 1),),
                    mode="timeout",
                    first_round=2,
                    last_round=2,
                ),
            ),
        )
        (cluster, sync), (ref_cluster, ref_sync) = _pair(
            lambda: ring_topology(4), 4, 33, plan=plan, engine="scalar"
        )
        rng = np.random.default_rng(8)
        first = rng.standard_normal((4, 33))
        sync.synchronize(cluster, first, 1)
        ref_sync.synchronize(ref_cluster, first, 1)
        with pytest.raises(LookupError):
            sync.synchronize(cluster, rng.standard_normal((4, 33)), 2)
        expected = ref_sync.state.compensation
        assert expected.any()
        np.testing.assert_allclose(
            sync.state.compensation, expected, rtol=0, atol=1e-12
        )

    def test_metrics_on_gauges_and_final_buffer(self):
        num_workers, dimension = 6, 301
        (cluster, sync), (ref_cluster, ref_sync) = _pair(
            lambda: torus_topology(2, 3), num_workers, dimension,
            obs=Observability.metrics_only, full_precision_every=5,
        )
        rng = np.random.default_rng(15)
        for round_idx in range(1, 12):
            updates = rng.standard_normal((num_workers, dimension))
            sync.synchronize(cluster, updates, round_idx)
            _, _, expected = ref_sync.synchronize(ref_cluster, updates, round_idx)
            gauges = cluster.obs.metrics
            for name, value in expected.items():
                assert gauges.gauge(name).value == value
        assert (
            sync.state.compensation.tobytes()
            == ref_sync.state.compensation.tobytes()
        )


class TestBufferSemantics:
    def test_read_only_inputs_are_accepted_and_not_written(self):
        num_workers, dimension = 4, 300
        matrix = np.random.default_rng(1).standard_normal((num_workers, dimension))
        matrix.flags.writeable = False
        rows = [row.copy() for row in matrix]
        for row in rows:
            row.flags.writeable = False
        reports = []
        for updates in (matrix, rows):
            sync = MarsitSynchronizer(
                MarsitConfig(global_lr=0.05, seed=2), num_workers, dimension
            )
            cluster = Cluster(ring_topology(num_workers))
            for round_idx in (1, 2):
                report = sync.synchronize(cluster, updates, round_idx)
            reports.append((report, sync.state.compensation.copy()))
        assert np.array_equal(matrix, np.stack(rows))
        assert np.array_equal(rows[0], matrix[0])
        (from_matrix, comp_matrix), (from_row_list, comp_rows) = reports
        assert from_matrix.global_updates[0].tobytes() == (
            from_row_list.global_updates[0].tobytes()
        )
        assert comp_matrix.tobytes() == comp_rows.tobytes()

    def test_compensation_is_one_buffer_across_rounds(self):
        sync = MarsitSynchronizer(
            MarsitConfig(global_lr=0.05, full_precision_every=3), 3, 64
        )
        buffer = sync.state.compensation
        cluster = Cluster(ring_topology(3))
        rng = np.random.default_rng(5)
        for round_idx in range(1, 7):
            sync.synchronize(cluster, rng.standard_normal((3, 64)), round_idx)
            assert sync.state.compensation is buffer

    def test_one_bit_global_update_is_shared_and_read_only(self):
        sync = MarsitSynchronizer(MarsitConfig(global_lr=0.05), 4, 50)
        report = sync.synchronize(
            Cluster(ring_topology(4)),
            np.random.default_rng(6).standard_normal((4, 50)),
            1,
        )
        first = report.global_updates[0]
        assert all(update is first for update in report.global_updates)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_rejected_updates_leave_the_buffer_alone(self):
        sync = MarsitSynchronizer(MarsitConfig(global_lr=0.05), 3, 20)
        cluster = Cluster(ring_topology(3))
        rng = np.random.default_rng(7)
        sync.synchronize(cluster, rng.standard_normal((3, 20)), 1)
        before = sync.state.compensation.copy()
        bad = [rng.standard_normal(20), rng.standard_normal(20), np.zeros(19)]
        with pytest.raises(ValueError, match="dimension"):
            sync.synchronize(cluster, bad, 2)
        with pytest.raises(ValueError, match="one update vector"):
            sync.synchronize(cluster, rng.standard_normal((2, 20)), 2)
        with pytest.raises(ValueError, match="dimension"):
            sync.synchronize(cluster, rng.standard_normal((3, 21)), 2)
        assert sync.state.compensation.tobytes() == before.tobytes()

    def test_terminal_fault_takes_the_updates_back_out(self):
        # A timeout drop in round 2 aborts the round inside the executor:
        # the voided round's updates leave the buffer, which returns to the
        # compensation c of round 1 up to float64 rounding.
        plan = FaultPlan(
            seed=4,
            events=(
                MessageDrop(
                    prob=1.0,
                    links=((0, 1),),
                    mode="timeout",
                    first_round=2,
                    last_round=2,
                ),
            ),
        )
        cluster = Cluster(ring_topology(4))
        cluster.attach_faults(FaultInjector(plan))
        sync = MarsitSynchronizer(
            MarsitConfig(global_lr=0.05, engine="scalar"), 4, 33
        )
        rng = np.random.default_rng(8)
        sync.synchronize(cluster, rng.standard_normal((4, 33)), 1)
        before = sync.state.compensation.copy()
        assert before.any()
        updates = rng.standard_normal((4, 33))
        with pytest.raises(LookupError):
            sync.synchronize(cluster, updates, 2)
        np.testing.assert_allclose(
            sync.state.compensation, before, rtol=0, atol=1e-12
        )

    def test_one_bit_round_allocates_less_than_half_a_matrix(self):
        num_workers, dimension = 8, 200_000
        sync = MarsitSynchronizer(
            MarsitConfig(global_lr=0.05, seed=1), num_workers, dimension
        )
        cluster = Cluster(ring_topology(num_workers))
        updates = np.random.default_rng(9).standard_normal(
            (num_workers, dimension)
        )
        sync.synchronize(cluster, updates, 1)  # compiles and caches the plan
        matrix_bytes = num_workers * dimension * 8
        tracemalloc.start()
        try:
            report = sync.synchronize(cluster, updates, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.full_precision
        assert peak < matrix_bytes / 2, (peak, matrix_bytes)


class TestMetrics:
    def test_gauges_match_fresh_array_formulas(self):
        num_workers, dimension = 5, 211
        pairs = _pair(
            lambda: ring_topology(num_workers), num_workers, dimension,
            obs=Observability.metrics_only, full_precision_every=4,
        )
        (cluster, sync), (ref_cluster, ref_sync) = pairs
        metrics = cluster.obs.metrics
        rng = np.random.default_rng(10)
        for round_idx in range(1, 9):
            updates = rng.standard_normal((num_workers, dimension))
            sync.synchronize(cluster, updates, round_idx)
            _, full_precision, expected = ref_sync.synchronize(
                ref_cluster, updates, round_idx
            )
            agreement = metrics.gauge("marsit.sign_agreement")
            if full_precision:
                assert "marsit.sign_agreement" not in expected
            else:
                assert agreement.value == expected["marsit.sign_agreement"]
            comp_norm = metrics.gauge("marsit.comp_norm").value
            assert comp_norm == expected["marsit.comp_norm"]
        # Six one-bit rounds (K = 4 makes rounds 4 and 8 full precision).
        assert len(metrics.gauge("marsit.sign_agreement").series) == 6
