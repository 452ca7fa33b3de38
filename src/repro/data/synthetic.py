"""Procedurally generated image-classification datasets.

Each class gets a spatially smoothed random prototype; a sample is the
prototype under a random gain/shift plus pixel noise.  The ``noise`` knob
controls class separability so that experiment accuracy curves have the same
qualitative dynamics as the paper's (fast early progress, slow saturation,
a visible gap when a synchronization scheme loses gradient information).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayDataset",
    "cifar10_like",
    "imagenet_like",
    "make_image_dataset",
    "mnist_like",
]


@dataclass
class ArrayDataset:
    """A fully materialized dataset: inputs ``x`` and integer labels ``y``."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        if len(self.y) and (
            self.y.min() < 0 or self.y.max() >= self.num_classes
        ):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(
            x=self.x[indices],
            y=self.y[indices],
            num_classes=self.num_classes,
            name=self.name,
        )


def _gaussian_kernel(sigma: float) -> np.ndarray:
    """The normalized Gaussian taps ``w[-r..r]``, radius ``int(4 sigma + 0.5)``."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return phi / phi.sum()


def _blur_axis(array: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``array`` with the symmetric ``weights`` along ``axis``.

    Boundaries reflect about the edge (``dcba|abcd|dcba``), repeating with
    period ``2 n`` when the radius exceeds the side ``n``.  The sum runs as
    ``x[i] w_0``, then ``+= (x[i - j] + x[i + j]) w_j`` from the outermost
    tap inwards: the float operations of ``scipy.ndimage``'s symmetric
    correlation, so the result matches ``gaussian_filter`` bit for bit.
    """
    side = array.shape[axis]
    radius = len(weights) // 2
    index = np.arange(-radius, side + radius) % (2 * side)
    index = np.where(index < side, index, 2 * side - 1 - index)
    padded = np.take(array, index, axis=axis)

    def tap(offset: int) -> np.ndarray:
        window = [slice(None)] * array.ndim
        window[axis] = slice(radius + offset, radius + offset + side)
        return padded[tuple(window)]

    out = tap(0) * weights[radius]
    for j in range(radius, 0, -1):
        out += (tap(-j) + tap(j)) * weights[radius - j]
    return out


def _smooth_prototypes(
    rng: np.random.Generator,
    num_classes: int,
    channels: int,
    size: int,
    smoothness: float,
) -> np.ndarray:
    """Smoothed random fields: one (C, H, W) prototype per class."""
    raw = rng.standard_normal((num_classes, channels, size, size))
    weights = _gaussian_kernel(smoothness)
    smoothed = _blur_axis(_blur_axis(raw, weights, 2), weights, 3)
    # Normalize each prototype to unit RMS so noise levels are comparable;
    # the sum runs in C order, so the blur must return a C-contiguous array.
    rms = np.sqrt((smoothed**2).mean(axis=(1, 2, 3), keepdims=True))
    return smoothed / np.maximum(rms, 1e-8)


def make_image_dataset(
    num_samples: int,
    num_classes: int,
    channels: int,
    size: int,
    noise: float,
    seed: int,
    smoothness: float = 1.5,
    name: str = "synthetic-images",
) -> ArrayDataset:
    """Build a synthetic image classification dataset.

    Args:
        num_samples: total samples (balanced across classes).
        noise: pixel-noise std relative to unit-RMS prototypes; ~1.0 is a
            hard-but-learnable regime for the mini models.
        smoothness: Gaussian blur sigma for prototype generation.
    """
    rng = np.random.default_rng(seed)
    prototypes = _smooth_prototypes(rng, num_classes, channels, size, smoothness)
    labels = rng.integers(0, num_classes, size=num_samples)
    gains = 1.0 + 0.2 * rng.standard_normal((num_samples, 1, 1, 1))
    shifts = 0.1 * rng.standard_normal((num_samples, 1, 1, 1))
    images = (
        gains * prototypes[labels]
        + shifts
        + noise * rng.standard_normal((num_samples, channels, size, size))
    )
    return ArrayDataset(
        x=images.astype(np.float64),
        y=labels.astype(np.int64),
        num_classes=num_classes,
        name=name,
    )


def mnist_like(
    num_samples: int = 2000, size: int = 8, noise: float = 0.7, seed: int = 0
) -> ArrayDataset:
    """MNIST stand-in: 1-channel digits, 10 classes, easy separability."""
    return make_image_dataset(
        num_samples=num_samples,
        num_classes=10,
        channels=1,
        size=size,
        noise=noise,
        seed=seed,
        name="mnist-like",
    )


def cifar10_like(
    num_samples: int = 2000, size: int = 16, noise: float = 1.0, seed: int = 1
) -> ArrayDataset:
    """CIFAR-10 stand-in: 3-channel images, 10 classes, moderate noise."""
    return make_image_dataset(
        num_samples=num_samples,
        num_classes=10,
        channels=3,
        size=size,
        noise=noise,
        seed=seed,
        name="cifar10-like",
    )


def imagenet_like(
    num_samples: int = 3000,
    size: int = 16,
    num_classes: int = 20,
    noise: float = 1.2,
    seed: int = 2,
) -> ArrayDataset:
    """ImageNet stand-in: more classes, harder noise regime."""
    return make_image_dataset(
        num_samples=num_samples,
        num_classes=num_classes,
        channels=3,
        size=size,
        noise=noise,
        seed=seed,
        name="imagenet-like",
    )
