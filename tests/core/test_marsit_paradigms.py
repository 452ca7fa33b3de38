"""Tests for Marsit's extended paradigms: tree and segmented-ring sync.

Section 5: "Marsit can be easily extended to other all-reduce paradigms
including segmented-ring all-reduce and tree all-reduce."
"""

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology, tree_topology
from repro.core.marsit import MarsitConfig, MarsitSynchronizer


def mean_sign(vectors):
    return np.mean([np.where(v >= 0, 1.0, -1.0) for v in vectors], axis=0)


class TestTreeMarsit:
    def test_consensus(self, rng):
        m, d = 6, 200
        sync = MarsitSynchronizer(MarsitConfig(global_lr=0.1), m, d)
        cluster = Cluster(tree_topology(m, arity=2))
        report = sync.synchronize(
            cluster, [rng.standard_normal(d) for _ in range(m)], 1
        )
        for update in report.global_updates[1:]:
            assert np.array_equal(update, report.global_updates[0])
        cluster.assert_drained()

    def test_unbiased(self, rng):
        m, d = 5, 800
        base = [rng.standard_normal(d) for _ in range(m)]
        target = mean_sign(base)
        acc = np.zeros(d)
        trials = 120
        for trial in range(trials):
            sync = MarsitSynchronizer(
                MarsitConfig(global_lr=1.0, seed=trial), m, d
            )
            cluster = Cluster(tree_topology(m, arity=2))
            acc += sync.synchronize(
                cluster, [b.copy() for b in base], 1
            ).global_updates[0]
        assert np.abs(acc / trials - target).mean() < 4.0 / np.sqrt(trials)

    def test_wide_arity(self, rng):
        m, d = 7, 64
        sync = MarsitSynchronizer(MarsitConfig(global_lr=0.1), m, d)
        cluster = Cluster(tree_topology(m, arity=6))
        report = sync.synchronize(
            cluster, [rng.standard_normal(d) for _ in range(m)], 1
        )
        assert np.isin(report.global_updates[0] / 0.1, (-1.0, 1.0)).all()

    def test_one_bit_per_edge(self, rng):
        m, d = 4, 8000
        cluster = Cluster(tree_topology(m, arity=2))
        sync = MarsitSynchronizer(MarsitConfig(global_lr=0.1), m, d)
        sync.synchronize(cluster, [rng.standard_normal(d) for _ in range(m)], 1)
        # Tree: 2 (M-1) messages of D bits (up + down per edge).
        assert cluster.total_bytes == 2 * (m - 1) * d // 8

    def test_full_precision_round_on_tree(self, rng):
        m, d = 5, 30
        sync = MarsitSynchronizer(
            MarsitConfig(global_lr=0.1, full_precision_every=2), m, d
        )
        cluster = Cluster(tree_topology(m, arity=2))
        updates = [rng.standard_normal(d) for _ in range(m)]
        report = sync.synchronize(cluster, updates, 0)
        assert report.full_precision
        assert np.allclose(
            report.global_updates[0], np.mean(updates, axis=0), atol=1e-5
        )


class TestSegmentedRingMarsit:
    def test_consensus_and_one_bit(self, rng):
        m, d = 4, 1030  # not a multiple of the segment size
        config = MarsitConfig(global_lr=0.1, segment_elems=128)
        sync = MarsitSynchronizer(config, m, d)
        cluster = Cluster(ring_topology(m))
        report = sync.synchronize(
            cluster, [rng.standard_normal(d) for _ in range(m)], 1
        )
        for update in report.global_updates[1:]:
            assert np.array_equal(update, report.global_updates[0])
        assert np.isin(report.global_updates[0] / 0.1, (-1.0, 1.0)).all()
        cluster.assert_drained()

    def test_unbiased(self, rng):
        m, d = 3, 900
        base = [rng.standard_normal(d) for _ in range(m)]
        target = mean_sign(base)
        acc = np.zeros(d)
        trials = 120
        for trial in range(trials):
            sync = MarsitSynchronizer(
                MarsitConfig(global_lr=1.0, seed=trial, segment_elems=100),
                m, d,
            )
            cluster = Cluster(ring_topology(m))
            acc += sync.synchronize(
                cluster, [b.copy() for b in base], 1
            ).global_updates[0]
        assert np.abs(acc / trials - target).mean() < 4.0 / np.sqrt(trials)

    def test_matches_plain_ring_volume_up_to_padding(self, rng):
        m, d = 4, 4096
        plain = Cluster(ring_topology(m))
        MarsitSynchronizer(MarsitConfig(global_lr=0.1), m, d).synchronize(
            plain, [rng.standard_normal(d) for _ in range(m)], 1
        )
        segmented = Cluster(ring_topology(m))
        MarsitSynchronizer(
            MarsitConfig(global_lr=0.1, segment_elems=512), m, d
        ).synchronize(segmented, [rng.standard_normal(d) for _ in range(m)], 1)
        # Same bit volume modulo byte-padding of the smaller segments.
        assert segmented.total_bytes <= plain.total_bytes * 1.1

    def test_rejects_bad_segment_config(self):
        with pytest.raises(ValueError):
            MarsitConfig(global_lr=0.1, segment_elems=0)


class TestEliasSignSum:
    def test_elias_saves_bytes_and_matches(self, rng):
        from repro.allreduce.codec import (
            SignSumCodec,
            allreduce_sum,
            checked_signs,
            signsum_allreduce,
        )

        m, d = 8, 4000
        signs = [
            np.where(rng.standard_normal(d) >= 0, 1.0, -1.0) for _ in range(m)
        ]
        fixed = Cluster(ring_topology(m))
        r_fixed = signsum_allreduce(fixed, [s.copy() for s in signs])
        coded = Cluster(ring_topology(m))
        r_coded = allreduce_sum(
            coded,
            checked_signs(
                coded, [s.copy() for s in signs], charge_compression=True
            ),
            SignSumCodec(elias_coded=True),
        )
        assert np.array_equal(r_fixed[0], r_coded[0])
        assert coded.total_bytes < fixed.total_bytes
        # Entropy coding cannot reach Marsit's flat one bit per element.
        one_bit_volume = 2 * (m - 1) * m * (d // m) / 8
        assert coded.total_bytes > one_bit_volume


class TestZigzag:
    def test_maps_small_values_in_order(self):
        from repro.comm.bits import zigzag_encode

        values = np.array([0, -1, 1, -2, 2])
        assert np.array_equal(zigzag_encode(values), [1, 2, 3, 4, 5])

    def test_strictly_positive(self):
        from repro.comm.bits import zigzag_encode

        values = np.arange(-50, 51)
        encoded = zigzag_encode(values)
        assert encoded.min() >= 1
        assert len(set(encoded.tolist())) == len(values)
