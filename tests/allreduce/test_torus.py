"""Tests for 2D-torus all-reduce."""

import numpy as np
import pytest

from repro.allreduce.codec import FloatCodec, allreduce_mean, allreduce_sum
from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology, torus_topology


def fp32_sum(cluster, vectors):
    return allreduce_sum(cluster, vectors, FloatCodec())


class TestTorusAllreduce:
    @pytest.mark.parametrize("rows,cols,d", [(2, 2, 16), (2, 3, 30), (3, 3, 27), (2, 4, 19)])
    def test_sum_matches_numpy(self, rows, cols, d, rng):
        m = rows * cols
        vectors = [rng.standard_normal(d) for _ in range(m)]
        cluster = Cluster(torus_topology(rows, cols))
        results = fp32_sum(cluster, vectors)
        expected = np.sum(vectors, axis=0)
        for result in results:
            assert np.allclose(result, expected, atol=1e-4)
        cluster.assert_drained()

    def test_mean(self, rng):
        vectors = [rng.standard_normal(12) for _ in range(4)]
        cluster = Cluster(torus_topology(2, 2))
        results = allreduce_mean(cluster, vectors)
        assert np.allclose(results[2], np.mean(vectors, axis=0), atol=1e-5)

    def test_degenerate_single_row(self, rng):
        vectors = [rng.standard_normal(10) for _ in range(4)]
        cluster = Cluster(torus_topology(1, 4))
        results = fp32_sum(cluster, vectors)
        assert np.allclose(results[0], np.sum(vectors, axis=0), atol=1e-4)

    def test_degenerate_single_column(self, rng):
        vectors = [rng.standard_normal(10) for _ in range(4)]
        cluster = Cluster(torus_topology(4, 1))
        results = fp32_sum(cluster, vectors)
        assert np.allclose(results[0], np.sum(vectors, axis=0), atol=1e-4)

    def test_allreduce_optimal_traffic(self, rng):
        # TAR moves the same 2 D (M-1) / M volume as RAR — the all-reduce
        # lower bound; its advantage is steps/latency, not bytes.
        d = 240
        vectors = [rng.standard_normal(d) for _ in range(9)]
        torus_cluster = Cluster(torus_topology(3, 3))
        fp32_sum(torus_cluster, vectors)
        ring_cluster = Cluster(ring_topology(9))
        fp32_sum(ring_cluster, vectors)
        assert torus_cluster.total_bytes == ring_cluster.total_bytes

    def test_fewer_steps_than_flat_ring(self, rng):
        # Latency term: 2(r + c - 2) hops < 2(M - 1) hops.
        d = 90
        vectors = [rng.standard_normal(d) for _ in range(9)]
        torus_cluster = Cluster(torus_topology(3, 3))
        fp32_sum(torus_cluster, vectors)
        ring_cluster = Cluster(ring_topology(9))
        fp32_sum(ring_cluster, vectors)
        # Step count is visible through the latency contribution: each step
        # adds one latency to the communication phase.
        from repro.comm.timing import Phase

        torus_comm = torus_cluster.timeline.seconds[Phase.COMMUNICATION]
        ring_comm = ring_cluster.timeline.seconds[Phase.COMMUNICATION]
        assert torus_comm < ring_comm

    def test_rejects_mismatched_dimensions(self, rng):
        cluster = Cluster(torus_topology(2, 2))
        vectors = [rng.standard_normal(4)] * 3 + [rng.standard_normal(5)]
        with pytest.raises(ValueError):
            fp32_sum(cluster, vectors)

    def test_rejects_wrong_count(self, rng):
        cluster = Cluster(torus_topology(2, 2))
        with pytest.raises(ValueError):
            fp32_sum(cluster, [rng.standard_normal(4)] * 3)
