"""Tests for the sign family: input checks, mean-abs sign, majority vote."""

import numpy as np
import pytest

from repro.compression.base import as_vector
from repro.compression.signsgd import MeanAbsSignCompressor, majority_vote


class TestAsVector:
    def test_accepts_1d(self):
        out = as_vector([1, 2, 3])
        assert out.dtype == np.float64

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector(np.array([1.0, np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_vector(np.array([np.inf]))


class TestMeanAbsSign:
    def test_scale_is_l1_mean(self, rng):
        vector = rng.standard_normal(50)
        payload = MeanAbsSignCompressor().compress(vector)
        assert payload.scale == pytest.approx(np.abs(vector).mean())

    def test_decode(self, rng):
        vector = rng.standard_normal(16)
        decoded = MeanAbsSignCompressor().compress(vector).decode()
        expected = np.abs(vector).mean() * np.where(vector >= 0, 1.0, -1.0)
        assert np.allclose(decoded, expected)

    def test_norm_control(self, rng):
        # The property that makes it cascade-safe: decoded norm ~ input norm.
        vector = rng.standard_normal(400)
        decoded = MeanAbsSignCompressor().compress(vector).decode()
        ratio = np.linalg.norm(decoded) / np.linalg.norm(vector)
        assert 0.5 < ratio < 1.2


class TestMajorityVote:
    def test_simple_majority(self):
        votes = [
            np.array([1.0, 1.0, -1.0]),
            np.array([1.0, -1.0, -1.0]),
            np.array([-1.0, 1.0, -1.0]),
        ]
        assert np.array_equal(majority_vote(votes), [1.0, 1.0, -1.0])

    def test_tie_breaks_positive(self):
        votes = [np.array([1.0]), np.array([-1.0])]
        assert majority_vote(votes)[0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            majority_vote([])

    def test_rejects_non_signs(self):
        with pytest.raises(ValueError):
            majority_vote([np.array([0.5, 1.0])])
