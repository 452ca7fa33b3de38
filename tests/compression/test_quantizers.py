"""Tests for the top-k sparsification baseline."""

import numpy as np
import pytest

from repro.compression.topk import TopKCompressor


class TestTopK:
    def test_keeps_largest(self):
        vector = np.array([0.1, -5.0, 0.3, 2.0, -0.2])
        payload = TopKCompressor(k=2).compress(vector)
        decoded = payload.decode()
        assert decoded[1] == -5.0 and decoded[3] == 2.0
        assert np.count_nonzero(decoded) == 2

    def test_k_larger_than_vector(self, rng):
        vector = rng.standard_normal(3)
        decoded = TopKCompressor(k=10).compress(vector).decode()
        assert np.allclose(decoded, vector)

    def test_wire_size_scales_with_k(self, rng):
        vector = rng.standard_normal(1000)
        small = TopKCompressor(k=10).compress(vector)
        large = TopKCompressor(k=100).compress(vector)
        assert small.nbytes < large.nbytes

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            TopKCompressor(k=0)
