"""Tests for ring all-reduce and the sign-sum variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allreduce.ring import (
    ring_allreduce_mean,
    ring_allreduce_sum,
    signsum_ring_allreduce,
    split_segments,
)
from repro.comm.bits import signed_int_bit_width
from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology


def make_cluster(m):
    return Cluster(ring_topology(m))


class TestSplitSegments:
    def test_even_split(self):
        segments = split_segments(np.arange(12.0), 3)
        assert [s.size for s in segments] == [4, 4, 4]
        assert np.array_equal(np.concatenate(segments), np.arange(12.0))

    def test_uneven_split(self):
        segments = split_segments(np.arange(10.0), 3)
        assert [s.size for s in segments] == [4, 3, 3]

    def test_fewer_elements_than_segments(self):
        segments = split_segments(np.arange(2.0), 4)
        assert sum(s.size for s in segments) == 2
        assert len(segments) == 4

    def test_segments_are_copies(self):
        vector = np.arange(6.0)
        segments = split_segments(vector, 2)
        segments[0][0] = 99.0
        assert vector[0] == 0.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            split_segments(np.zeros((2, 3)), 2)


class TestRingAllreduce:
    @pytest.mark.parametrize("m,d", [(2, 8), (3, 10), (4, 37), (5, 5), (8, 100)])
    def test_sum_matches_numpy(self, m, d, rng):
        vectors = [rng.standard_normal(d) for _ in range(m)]
        cluster = make_cluster(m)
        results = ring_allreduce_sum(cluster, vectors)
        expected = np.sum(vectors, axis=0)
        for result in results:
            assert np.allclose(result, expected, atol=1e-4)
        cluster.assert_drained()

    def test_all_workers_bitwise_identical(self, rng):
        vectors = [rng.standard_normal(20) for _ in range(4)]
        results = ring_allreduce_sum(make_cluster(4), vectors)
        for result in results[1:]:
            assert np.array_equal(result, results[0])

    def test_mean(self, rng):
        vectors = [rng.standard_normal(12) for _ in range(3)]
        results = ring_allreduce_mean(make_cluster(3), vectors)
        assert np.allclose(results[0], np.mean(vectors, axis=0), atol=1e-5)

    def test_single_worker_identity(self, rng):
        vector = rng.standard_normal(7)
        results = ring_allreduce_sum(make_cluster(1), [vector])
        assert np.allclose(results[0], vector)

    def test_traffic_volume(self, rng):
        # FP32 ring: total bytes = 2 (M-1) * D * 4 summed over all workers.
        m, d = 4, 40
        cluster = make_cluster(m)
        ring_allreduce_sum(cluster, [rng.standard_normal(d) for _ in range(m)])
        assert cluster.total_bytes == 2 * (m - 1) * d * 4

    def test_rejects_wrong_vector_count(self, rng):
        with pytest.raises(ValueError):
            ring_allreduce_sum(make_cluster(3), [rng.standard_normal(4)] * 2)

    def test_dimension_smaller_than_workers(self, rng):
        vectors = [rng.standard_normal(2) for _ in range(5)]
        results = ring_allreduce_sum(make_cluster(5), vectors)
        assert np.allclose(results[0], np.sum(vectors, axis=0), atol=1e-5)

    @given(
        m=st.integers(min_value=2, max_value=6),
        d=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_property(self, m, d, seed):
        rng = np.random.default_rng(seed)
        vectors = [rng.standard_normal(d) for _ in range(m)]
        results = ring_allreduce_sum(make_cluster(m), vectors)
        assert np.allclose(results[0], np.sum(vectors, axis=0), atol=1e-3)


class TestSignSumAllreduce:
    def test_matches_numpy_sum(self, rng):
        m, d = 5, 33
        signs = [np.where(rng.standard_normal(d) >= 0, 1.0, -1.0) for _ in range(m)]
        cluster = make_cluster(m)
        results = signsum_ring_allreduce(cluster, signs)
        expected = np.sum(signs, axis=0).astype(np.int64)
        for result in results:
            assert np.array_equal(result, expected)

    def test_rejects_non_sign_input(self, rng):
        with pytest.raises(ValueError):
            signsum_ring_allreduce(make_cluster(2), [np.array([1.0, 0.5])] * 2)

    def test_bit_expansion_traffic(self, rng):
        # Reduce-phase hop s carries width(s+2) bits/elem; the gather phase
        # carries width(M) bits/elem; strictly more than 1 bit after hop 1.
        m, d = 4, 80
        signs = [np.where(rng.standard_normal(d) >= 0, 1.0, -1.0) for _ in range(m)]
        cluster = make_cluster(m)
        signsum_ring_allreduce(cluster, signs, charge_compression=False)
        seg = d // m
        # Reduce step s (0-indexed) forwards partial sums over s+1 workers;
        # the gather phase circulates full sums over all m workers.
        reduce_bytes = sum(
            m * ((signed_int_bit_width(s + 1) * seg + 7) // 8)
            for s in range(m - 1)
        )
        gather_bytes = (m - 1) * m * ((signed_int_bit_width(m) * seg + 7) // 8)
        assert cluster.total_bytes == reduce_bytes + gather_bytes

    def test_cheaper_than_fp32_but_pricier_than_one_bit(self, rng):
        m, d = 8, 800
        signs = [np.where(rng.standard_normal(d) >= 0, 1.0, -1.0) for _ in range(m)]
        sign_cluster = make_cluster(m)
        signsum_ring_allreduce(sign_cluster, signs, charge_compression=False)
        fp_cluster = make_cluster(m)
        ring_allreduce_sum(fp_cluster, signs)
        one_bit_total = 2 * (m - 1) * (d // m // 8) * m  # 1 bit/elem ring
        assert one_bit_total < sign_cluster.total_bytes < fp_cluster.total_bytes

    def test_single_worker(self):
        result = signsum_ring_allreduce(make_cluster(1), [np.array([1.0, -1.0])])
        assert np.array_equal(result[0], [1, -1])
