"""The prototype blur is ``scipy.ndimage.gaussian_filter``, byte for byte.

``repro.data.synthetic`` blurs each class prototype with a separable numpy
Gaussian so that the runtime needs numpy alone; scipy (a test dependency)
is the reference it must reproduce exactly: same taps, same summation
order, same reflected boundaries, including radii wider than the image.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.data.synthetic import _blur_axis, _gaussian_kernel


def _blur(raw, sigma):
    weights = _gaussian_kernel(sigma)
    return _blur_axis(_blur_axis(raw, weights, 2), weights, 3)


@pytest.mark.parametrize("sigma", [0.5, 0.7, 1.5, 2, 3])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_matches_scipy_gaussian_filter(sigma, channels):
    rng = np.random.default_rng(int(10 * sigma) + channels)
    for side in range(1, 33):
        raw = rng.standard_normal((3, channels, side, side))
        expected = ndimage.gaussian_filter(raw, sigma=(0, 0, sigma, sigma))
        actual = _blur(raw, sigma)
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes(), side
        assert actual.flags.c_contiguous


def test_radius_wider_than_side_repeats_the_reflection():
    # sigma = 3 has radius 12: a 2-pixel side reflects six times over.
    assert len(_gaussian_kernel(3)) == 25
    raw = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
    expected = ndimage.gaussian_filter(raw, sigma=(0, 0, 3, 3))
    assert _blur(raw, 3).tobytes() == expected.tobytes()


def test_kernel_is_normalized_and_symmetric():
    weights = _gaussian_kernel(1.5)
    assert len(weights) == 2 * int(4 * 1.5 + 0.5) + 1
    assert np.isclose(weights.sum(), 1.0)
    assert np.array_equal(weights, weights[::-1])
