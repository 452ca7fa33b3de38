"""Tests for the Marsit ``⊙`` merge operator (Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sign_ops import (
    expected_merge_probability,
    merge_sign_bits,
    transient_vector,
)


class TestMergeTruthTable:
    def test_agreement_kept(self):
        received = np.array([1, 1, 0, 0], dtype=np.uint8)
        local = np.array([1, 1, 0, 0], dtype=np.uint8)
        transient = np.array([0, 1, 0, 1], dtype=np.uint8)  # irrelevant
        merged = merge_sign_bits(received, local, transient)
        assert np.array_equal(merged, [1, 1, 0, 0])

    def test_disagreement_takes_transient(self):
        received = np.array([1, 0, 1, 0], dtype=np.uint8)
        local = np.array([0, 1, 0, 1], dtype=np.uint8)
        transient = np.array([1, 1, 0, 0], dtype=np.uint8)
        merged = merge_sign_bits(received, local, transient)
        assert np.array_equal(merged, transient)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            merge_sign_bits(np.ones(3, dtype=np.uint8), np.ones(2, dtype=np.uint8),
                            np.ones(3, dtype=np.uint8))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            merge_sign_bits(np.array([2]), np.array([1]), np.array([0]))

    def test_rejects_non_binary_uint8(self):
        # uint8 is not binary by type: 2 and 3 must not slip through.
        with pytest.raises(ValueError, match="received_bits"):
            merge_sign_bits(
                np.array([2, 3], dtype=np.uint8),
                np.array([1, 0], dtype=np.uint8),
                np.array([0, 1], dtype=np.uint8),
            )
        with pytest.raises(ValueError, match="local_bits"):
            transient_vector(np.array([0, 5], dtype=np.uint8), 1, 1,
                             np.random.default_rng(0))

    def test_accepts_bool_bits(self):
        merged = merge_sign_bits(
            np.array([True, False]), np.array([True, True]),
            np.array([False, True]),
        )
        assert np.array_equal(merged, [1, 1])

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    def test_operator_formula(self, v, l, r):
        # merged = (v AND l) OR ((v XOR l) AND r)
        merged = merge_sign_bits(
            np.array([v], dtype=np.uint8),
            np.array([l], dtype=np.uint8),
            np.array([r], dtype=np.uint8),
        )[0]
        assert merged == ((v & l) | ((v ^ l) & r))


class TestTransientVector:
    def test_probability_where_local_one(self):
        # Eq. 2 with m = 4: local bit 1 -> P(r=1) = 1/4.
        rng = np.random.default_rng(0)
        local = np.ones(200_000, dtype=np.uint8)
        r = transient_vector(local, received_weight=3, local_weight=1, rng=rng)
        assert r.mean() == pytest.approx(0.25, abs=0.01)

    def test_probability_where_local_zero(self):
        # Eq. 2 with m = 4: local bit 0 -> P(r=1) = 3/4.
        rng = np.random.default_rng(0)
        local = np.zeros(200_000, dtype=np.uint8)
        r = transient_vector(local, received_weight=3, local_weight=1, rng=rng)
        assert r.mean() == pytest.approx(0.75, abs=0.01)

    def test_weighted_generalization(self):
        # TAR column phase: local represents a whole row (weight = cols).
        rng = np.random.default_rng(1)
        local = np.ones(200_000, dtype=np.uint8)
        r = transient_vector(local, received_weight=6, local_weight=2, rng=rng)
        assert r.mean() == pytest.approx(2 / 8, abs=0.01)

    def test_rejects_bad_weights(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            transient_vector(np.ones(4, dtype=np.uint8), 0, 1, rng)

    def test_drawable_before_reception(self):
        # The transient depends only on the local bits — the Section 4.1.1
        # parallelism claim.  Same rng state + same local bits => same draw,
        # regardless of what will be received.
        local = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        r1 = transient_vector(local, 2, 1, np.random.default_rng(7))
        r2 = transient_vector(local, 2, 1, np.random.default_rng(7))
        assert np.array_equal(r1, r2)


class TestMergeUnbiasedness:
    def test_single_merge_expectation(self):
        # Merge worker 2's deterministic bits into worker 1's: expected bit
        # equals the average of the two bits.
        rng = np.random.default_rng(2)
        n = 100_000
        received = (rng.random(n) < 0.7).astype(np.uint8)  # p = 0.7
        local = (rng.random(n) < 0.3).astype(np.uint8)  # q = 0.3
        transient = transient_vector(local, 1, 1, rng)
        merged = merge_sign_bits(received, local, transient)
        assert merged.mean() == pytest.approx(0.5, abs=0.01)

    @given(
        p=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
        a=st.integers(1, 8),
        b=st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_weighted_expectation_property(self, p, q, a, b):
        rng = np.random.default_rng(int(p * 1000) * 31 + int(q * 1000))
        n = 60_000
        received = (rng.random(n) < p).astype(np.uint8)
        local = (rng.random(n) < q).astype(np.uint8)
        transient = transient_vector(local, a, b, rng)
        merged = merge_sign_bits(received, local, transient)
        expected = expected_merge_probability(p, q, a, b)
        assert abs(merged.mean() - float(expected)) < 0.02

    def test_chain_of_merges_is_mean_of_signs(self):
        # Full induction: merging M workers one by one yields
        # P(bit) = fraction of +1 among them, per coordinate.
        rng = np.random.default_rng(3)
        m, n = 5, 40_000
        worker_bits = [(rng.random(n) < rng.random()) for _ in range(m)]
        worker_bits = [w.astype(np.uint8) for w in worker_bits]
        counts = np.zeros(n)
        trials = 60
        for trial in range(trials):
            trial_rng = np.random.default_rng(100 + trial)
            merged = worker_bits[0]
            for hop in range(1, m):
                local = worker_bits[hop]
                transient = transient_vector(local, hop, 1, trial_rng)
                merged = merge_sign_bits(merged, local, transient)
            counts += merged
        empirical = counts / trials
        target = np.mean(worker_bits, axis=0)
        assert abs(empirical.mean() - target.mean()) < 0.01
