"""Tests for parameter-server, tree, and segmented-ring collectives."""

import numpy as np
import pytest

from repro.allreduce.codec import FloatCodec, allreduce_mean, allreduce_sum
from repro.allreduce.ps import ps_allreduce
from repro.allreduce.segmented import segmented_ring_allreduce
from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.comm.topology import ring_topology, star_topology, tree_topology


class TestPSAllreduce:
    def test_mean_aggregation(self, rng):
        m = 4
        vectors = [rng.standard_normal(10).astype(np.float32) for _ in range(m)]
        cluster = Cluster(star_topology(m, server=0))
        results = ps_allreduce(cluster, vectors, aggregate=lambda xs: np.mean(xs, axis=0))
        expected = np.mean(vectors, axis=0)
        for result in results:
            assert np.allclose(result, expected, atol=1e-5)
        cluster.assert_drained()

    def test_nonzero_server_rank(self, rng):
        m = 3
        vectors = [rng.standard_normal(6).astype(np.float32) for _ in range(m)]
        cluster = Cluster(star_topology(m, server=1))
        results = ps_allreduce(cluster, vectors, aggregate=lambda xs: np.sum(xs, axis=0))
        assert np.allclose(results[0], np.sum(vectors, axis=0), atol=1e-4)

    def test_uploads_charged_serially(self, rng):
        # M-1 uploads + 1 broadcast = M steps -> M latencies of comm time.
        m = 5
        vectors = [np.zeros(0, dtype=np.float32) for _ in range(m)]
        cluster = Cluster(star_topology(m, server=0))
        ps_allreduce(cluster, vectors, aggregate=lambda xs: xs[0])
        latency = cluster.cost_model.latency_s
        assert cluster.timeline.seconds[Phase.COMMUNICATION] == pytest.approx(
            m * latency
        )

    def test_more_bytes_than_ring_with_dedicated_server(self, rng):
        # Section 3.1: with a dedicated server, PS moves 2 M D weights vs
        # ring's 2 (M-1) D.
        m, d = 4, 100
        vectors32 = [rng.standard_normal(d).astype(np.float32) for _ in range(m)]
        ps_cluster = Cluster(star_topology(m + 1, server=0))
        payloads = [np.zeros(0, dtype=np.float32)] + vectors32
        ps_allreduce(
            ps_cluster,
            payloads,
            aggregate=lambda xs: np.mean([x for x in xs if x.size], axis=0),
        )
        assert ps_cluster.total_bytes == 2 * m * d * 4
        ring_cluster = Cluster(ring_topology(m))
        allreduce_sum(ring_cluster, [np.asarray(v) for v in vectors32], FloatCodec())
        assert ring_cluster.total_bytes == 2 * (m - 1) * d * 4
        assert ps_cluster.total_bytes > ring_cluster.total_bytes

    def test_decode_hook(self, rng):
        m = 3
        vectors = [rng.standard_normal(4).astype(np.float32) for _ in range(m)]
        cluster = Cluster(star_topology(m, server=0))
        results = ps_allreduce(
            cluster,
            vectors,
            aggregate=lambda xs: np.mean(xs, axis=0),
            decode=lambda v: 2.0 * np.asarray(v),
        )
        assert np.allclose(results[0], 2.0 * np.mean(vectors, axis=0), atol=1e-5)

    def test_requires_star(self, rng):
        cluster = Cluster(ring_topology(3))
        with pytest.raises(ValueError):
            ps_allreduce(cluster, [rng.standard_normal(3)] * 3, aggregate=sum)


class TestTreeAllreduce:
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 10])
    def test_sum(self, m, rng):
        vectors = [rng.standard_normal(8) for _ in range(m)]
        cluster = Cluster(tree_topology(m, arity=2))
        results = allreduce_mean(cluster, vectors)
        expected = np.mean(vectors, axis=0)
        for result in results:
            assert np.allclose(result, expected, atol=1e-6)
        cluster.assert_drained()

    def test_wide_arity(self, rng):
        m = 6
        vectors = [rng.standard_normal(3) for _ in range(m)]
        cluster = Cluster(tree_topology(m, arity=5))
        results = allreduce_mean(cluster, vectors)
        assert np.allclose(results[0], np.mean(vectors, axis=0), atol=1e-6)

    def test_mean_puts_fp32_on_the_wire(self, rng):
        m, d = 7, 10
        vectors = [rng.standard_normal(d) for _ in range(m)]
        cluster = Cluster(tree_topology(m, arity=2))
        results = allreduce_mean(cluster, vectors)
        assert cluster.total_bytes == 2 * (m - 1) * 4 * d
        expected = np.sum(
            [v.astype(np.float32) for v in vectors], axis=0, dtype=np.float64
        ) / m
        for result in results:
            assert result.dtype == np.float64
            assert np.allclose(result, expected, atol=1e-6)
        cluster.assert_drained()


class TestSegmentedRing:
    def test_matches_plain_ring(self, rng):
        m, d = 4, 50
        vectors = [rng.standard_normal(d) for _ in range(m)]
        cluster = Cluster(ring_topology(m))
        results = segmented_ring_allreduce(cluster, vectors, segment_elems=16)
        assert np.allclose(results[0], np.sum(vectors, axis=0), atol=1e-4)
        cluster.assert_drained()

    def test_segment_larger_than_vector(self, rng):
        m, d = 3, 10
        vectors = [rng.standard_normal(d) for _ in range(m)]
        cluster = Cluster(ring_topology(m))
        results = segmented_ring_allreduce(cluster, vectors, segment_elems=1000)
        assert np.allclose(results[0], np.sum(vectors, axis=0), atol=1e-4)

    def test_same_traffic_as_plain_ring(self, rng):
        m, d = 4, 64
        vectors = [rng.standard_normal(d) for _ in range(m)]
        seg_cluster = Cluster(ring_topology(m))
        segmented_ring_allreduce(seg_cluster, vectors, segment_elems=16)
        ring_cluster = Cluster(ring_topology(m))
        allreduce_sum(ring_cluster, vectors, FloatCodec())
        assert seg_cluster.total_bytes == ring_cluster.total_bytes

    def test_rejects_bad_segment(self, rng):
        with pytest.raises(ValueError):
            segmented_ring_allreduce(
                Cluster(ring_topology(2)), [rng.standard_normal(4)] * 2, 0
            )
