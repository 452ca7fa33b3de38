"""Property-based tests (hypothesis) on cross-module invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allreduce.codec import FloatCodec, allreduce_mean, allreduce_sum
from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology, torus_topology
from repro.compression.ef import EFSignCompressor
from repro.compression.ssdm import SSDMCompressor
from repro.compression.topk import TopKCompressor
from repro.core.marsit import MarsitConfig, MarsitSynchronizer


finite_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1,
    max_size=50,
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestCompressorProperties:
    @given(finite_vectors, st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_ssdm_decode_dimension_and_sign_structure(self, vector, seed):
        rng = np.random.default_rng(seed)
        payload = SSDMCompressor().compress(vector, rng=rng)
        decoded = payload.decode()
        assert decoded.shape == vector.shape
        norm = np.linalg.norm(vector)
        assert np.allclose(np.abs(decoded), norm)

    @given(finite_vectors, st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_topk_preserves_top_magnitudes(self, vector, k):
        payload = TopKCompressor(k=k).compress(vector)
        decoded = payload.decode()
        kept = np.flatnonzero(decoded)
        assert len(kept) == min(k, np.count_nonzero(vector) + (vector == 0).sum()) \
            or len(kept) <= min(k, vector.size)
        if kept.size:
            min_kept = np.abs(vector[kept]).min()
            dropped = np.setdiff1d(np.arange(vector.size), kept)
            if dropped.size:
                assert np.abs(vector[dropped]).max() <= min_kept + 1e-12

    @given(st.lists(finite_vectors, min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_ef_memory_identity_over_sequence(self, vectors):
        dim = vectors[0].size
        vectors = [v[:dim] if v.size >= dim else np.resize(v, dim)
                   for v in vectors]
        compressor = EFSignCompressor()
        total_in = np.zeros(dim)
        total_out = np.zeros(dim)
        for vector in vectors:
            total_in += vector
            total_out += compressor.compress(vector).decode()
        assert np.allclose(total_in - total_out, compressor.memory, atol=1e-9)


class TestCollectiveProperties:
    @given(
        m=st.integers(2, 6),
        d=st.integers(1, 40),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_ring_mean_is_permutation_invariant(self, m, d, seed):
        rng = np.random.default_rng(seed)
        vectors = [rng.standard_normal(d) for _ in range(m)]
        mean_a = allreduce_mean(Cluster(ring_topology(m)), vectors)[0]
        perm = list(reversed(vectors))
        mean_b = allreduce_mean(Cluster(ring_topology(m)), perm)[0]
        assert np.allclose(mean_a, mean_b, atol=1e-5)

    @given(
        rows=st.integers(1, 3),
        cols=st.integers(1, 3),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_torus_matches_numpy(self, rows, cols, seed):
        m = rows * cols
        rng = np.random.default_rng(seed)
        vectors = [rng.standard_normal(12) for _ in range(m)]
        result = allreduce_sum(
            Cluster(torus_topology(rows, cols)), vectors, FloatCodec()
        )
        assert np.allclose(result[0], np.sum(vectors, axis=0), atol=1e-4)


class TestMarsitProperties:
    @given(
        m=st.integers(2, 5),
        d=st.integers(1, 64),
        seed=st.integers(0, 300),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_bit_consensus_and_structure(self, m, d, seed):
        rng = np.random.default_rng(seed)
        sync = MarsitSynchronizer(MarsitConfig(global_lr=0.5, seed=seed), m, d)
        cluster = Cluster(ring_topology(m))
        updates = [rng.standard_normal(d) for _ in range(m)]
        report = sync.synchronize(cluster, updates, round_idx=1)
        first = report.global_updates[0]
        for update in report.global_updates[1:]:
            assert np.array_equal(update, first)
        assert np.isin(first / 0.5, (-1.0, 1.0)).all()
        cluster.assert_drained()

    @given(
        m=st.integers(2, 4),
        seed=st.integers(0, 300),
    )
    @settings(max_examples=20, deadline=None)
    def test_compensation_telescopes(self, m, seed):
        # Over any prefix of rounds: sum(updates_in) + c_0 =
        # sum(g_t applied) + c_now, per worker, exactly.
        d = 24
        rng = np.random.default_rng(seed)
        sync = MarsitSynchronizer(
            MarsitConfig(global_lr=0.1, seed=seed), m, d
        )
        total_in = [np.zeros(d) for _ in range(m)]
        total_applied = [np.zeros(d) for _ in range(m)]
        for round_idx in range(1, 5):
            updates = [rng.standard_normal(d) for _ in range(m)]
            report = sync.synchronize(
                Cluster(ring_topology(m)), updates, round_idx
            )
            for w in range(m):
                total_in[w] += updates[w]
                total_applied[w] += report.global_updates[w]
        for w in range(m):
            assert np.allclose(
                total_in[w] - total_applied[w],
                sync.state.compensation[w],
                atol=1e-10,
            )
