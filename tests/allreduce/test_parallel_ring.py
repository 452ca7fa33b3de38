"""Direct tests for the lockstep multi-cycle ring primitives."""

import numpy as np
import pytest

from repro.allreduce.ring import (
    parallel_ring_all_gather,
    parallel_ring_reduce_scatter,
    split_segments,
)
from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.comm.topology import torus_topology


def _add(received, local, step, rank):
    return np.asarray(received) + local


class TestParallelRing:
    def test_two_rows_reduce_in_lockstep(self, rng):
        cluster = Cluster(torus_topology(2, 3))
        cycles = [[0, 1, 2], [3, 4, 5]]
        vectors = {rank: rng.standard_normal(9) for rank in range(6)}
        segments = [
            [split_segments(vectors[rank], 3) for rank in cycle]
            for cycle in cycles
        ]
        owned = parallel_ring_reduce_scatter(cluster, cycles, segments, _add)
        parallel_ring_all_gather(cluster, cycles, segments)
        for cycle_idx, cycle in enumerate(cycles):
            expected = np.sum([vectors[r] for r in cycle], axis=0)
            for pos in range(3):
                got = np.concatenate(segments[cycle_idx][pos])
                assert np.allclose(got, expected, atol=1e-9)
        assert owned == [[1, 2, 0], [1, 2, 0]]
        cluster.assert_drained()

    def test_lockstep_charges_one_latency_per_step(self, rng):
        # Two concurrent 3-cycles: still only (3-1) reduce steps of latency.
        cluster = Cluster(torus_topology(2, 3))
        cycles = [[0, 1, 2], [3, 4, 5]]
        segments = [
            [split_segments(np.zeros(3), 3) for _ in cycle] for cycle in cycles
        ]
        parallel_ring_reduce_scatter(cluster, cycles, segments, _add)
        latency = cluster.cost_model.latency_s
        comm = cluster.timeline.seconds[Phase.COMMUNICATION]
        assert comm == pytest.approx(2 * latency, rel=0.05)

    def test_rejects_unequal_cycle_lengths(self, rng):
        cluster = Cluster(torus_topology(2, 3))
        cycles = [[0, 1, 2], [3, 4]]
        segments = [
            [split_segments(np.zeros(3), len(c)) for _ in c] for c in cycles
        ]
        with pytest.raises(ValueError):
            parallel_ring_reduce_scatter(cluster, cycles, segments, _add)

    def test_rejects_wrong_segment_count(self, rng):
        cluster = Cluster(torus_topology(2, 3))
        cycles = [[0, 1, 2]]
        segments = [[split_segments(np.zeros(4), 2) for _ in range(3)]]
        with pytest.raises(ValueError):
            parallel_ring_reduce_scatter(cluster, cycles, segments, _add)

    def test_empty_cycles_noop(self):
        cluster = Cluster(torus_topology(2, 3))
        assert parallel_ring_reduce_scatter(cluster, [], [], _add) == []
        parallel_ring_all_gather(cluster, [], [])  # no raise


class TestTorusScalarAllgather:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3), (1, 4), (4, 1)])
    def test_all_shapes(self, rows, cols):
        from repro.allreduce.torus import torus_allgather_scalars

        cluster = Cluster(torus_topology(rows, cols))
        values = [float(r) * 2.5 + 1 for r in range(rows * cols)]
        gathered = torus_allgather_scalars(cluster, values)
        assert np.allclose(gathered, values)
        cluster.assert_drained()

    def test_rejects_wrong_count(self):
        from repro.allreduce.torus import torus_allgather_scalars

        cluster = Cluster(torus_topology(2, 2))
        with pytest.raises(ValueError):
            torus_allgather_scalars(cluster, [1.0, 2.0])


class TestSignsumTorus:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 4), (3, 3)])
    def test_matches_numpy(self, rows, cols, rng):
        from repro.allreduce.torus import signsum_torus_allreduce

        m = rows * cols
        signs = [
            np.where(rng.standard_normal(40) >= 0, 1.0, -1.0) for _ in range(m)
        ]
        cluster = Cluster(torus_topology(rows, cols))
        results = signsum_torus_allreduce(cluster, signs)
        expected = np.sum(signs, axis=0).astype(np.int64)
        for result in results:
            assert np.array_equal(result, expected)
        cluster.assert_drained()

    def test_expansion_cheaper_than_fp32(self, rng):
        from repro.allreduce.torus import (
            signsum_torus_allreduce,
            torus_allreduce_sum,
        )

        m, d = 8, 800
        signs = [
            np.where(rng.standard_normal(d) >= 0, 1.0, -1.0) for _ in range(m)
        ]
        sign_cluster = Cluster(torus_topology(2, 4))
        signsum_torus_allreduce(sign_cluster, signs, charge_compression=False)
        fp_cluster = Cluster(torus_topology(2, 4))
        torus_allreduce_sum(fp_cluster, signs)
        assert sign_cluster.total_bytes < fp_cluster.total_bytes

    def test_rejects_non_signs(self, rng):
        from repro.allreduce.torus import signsum_torus_allreduce

        cluster = Cluster(torus_topology(2, 2))
        with pytest.raises(ValueError):
            signsum_torus_allreduce(cluster, [np.array([0.5, 1.0])] * 4)
