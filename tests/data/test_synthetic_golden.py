"""Golden fingerprints of the synthetic image datasets.

A sha256 over ``x`` and over ``y`` (dtype, shape and bytes) pins every
generated sample bit for bit: the prototype blur, its RMS normalization
and the draw order of gains, shifts and noise.  The cases are the three
datasets at their default arguments and the ``mnist_like`` calls of the
``perfbench`` training workloads.  Refresh intentionally with::

    python -m pytest tests/data/test_synthetic_golden.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.synthetic import cifar10_like, imagenet_like, mnist_like

GOLDEN = Path(__file__).parent / "golden" / "synthetic_sha256.json"

CASES = {
    "mnist_like": mnist_like,
    "cifar10_like": cifar10_like,
    "imagenet_like": imagenet_like,
    **{
        f"mnist_like_n1200_s8_noise0.6_seed{seed}": (
            lambda seed=seed: mnist_like(
                num_samples=1200, size=8, noise=0.6, seed=seed
            )
        )
        for seed in (1, 3, 7)
    },
}


def _sha256(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_datasets_match_golden(update_golden):
    actual = {}
    for name, build in CASES.items():
        data = build()
        actual[name] = {"x": _sha256(data.x), "y": _sha256(data.y)}
    if update_golden:
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        pytest.skip("golden dataset fingerprints rewritten")
    expected = json.loads(GOLDEN.read_text())
    assert set(expected) == set(CASES)
    for name in CASES:
        assert actual[name] == expected[name], name
