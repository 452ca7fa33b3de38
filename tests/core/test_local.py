"""The per-worker base optimizer writes its direction over the gradient.

``LocalOptimizer.step`` keeps only its state (momentum, Adam's moments, one
D-vector scratch) and returns the gradient it was handed, now holding the
direction.  Each case below is checked bit for bit against the formulas of
the optimizer that wrote into an output array of its own.
"""

import numpy as np
import pytest

from repro.core.local import LocalOptimizer

ROWS, D = 3, 257


def _reference(kind, grads, scale, momentum=0.9, b1=0.9, b2=0.999, eps=1e-8):
    """The directions of rounds of ``(worker, grad)`` pairs, each written
    into a fresh output array in the old operation order."""
    first = np.zeros((ROWS, D))
    second = np.zeros((ROWS, D))
    steps = [0] * ROWS
    outputs = []
    for row, grad in grads:
        out = np.empty(D)
        if kind == "sgd":
            np.multiply(grad, scale, out=out)
        elif kind == "momentum":
            first[row] *= momentum
            first[row] += grad
            np.multiply(first[row], scale, out=out)
        else:
            steps[row] += 1
            t = steps[row]
            scratch = np.empty(D)
            first[row] *= b1
            first[row] += np.multiply(grad, 1 - b1, out=out)
            second[row] *= b2
            second[row] += np.multiply(np.square(grad, out=out), 1 - b2, out=out)
            np.divide(first[row], 1 - b1**t, out=out)
            out *= scale
            np.sqrt(np.divide(second[row], 1 - b2**t, out=scratch), out=scratch)
            scratch += eps
            out /= scratch
        outputs.append(out)
    return outputs


def _stream(rng, rounds=4):
    return [
        (row, rng.standard_normal(D) * 10.0 ** rng.integers(-3, 3))
        for _ in range(rounds)
        for row in range(ROWS)
    ]


@pytest.mark.parametrize("kind", ["sgd", "momentum", "adam"])
@pytest.mark.parametrize("scale", [1.0, 0.05])
def test_direction_written_over_the_gradient_bit_identical(kind, scale, rng):
    stream = _stream(rng)
    expected = _reference(kind, [(row, g.copy()) for row, g in stream], scale)
    local = LocalOptimizer(ROWS, kind)
    for (row, grad), want in zip(stream, expected):
        direction = local.step(row, grad, scale=scale)
        assert direction is grad
        assert direction.tobytes() == want.tobytes()
    assert not hasattr(local, "out")


def test_rows_of_a_matrix_are_written_in_place(rng):
    grads = rng.standard_normal((ROWS, D))
    expected = _reference("momentum", [(r, g.copy()) for r, g in enumerate(grads)], 2.0)
    local = LocalOptimizer(ROWS, "momentum")
    for row in range(ROWS):
        local.step(row, grads[row], scale=2.0)
    assert grads.tobytes() == np.stack(expected).tobytes()


def test_other_dtypes_are_converted_not_written(rng):
    grad = rng.standard_normal(D).astype(np.float32)
    before = grad.copy()
    direction = LocalOptimizer(1, "sgd").step(0, grad, scale=0.5)
    assert direction.dtype == np.float64
    assert np.array_equal(grad, before)
    assert np.array_equal(direction, before.astype(np.float64) * 0.5)


@pytest.mark.parametrize("kind", ["momentum", "adam"])
def test_read_only_gradient_rejected_before_any_state_changes(kind, rng):
    local = LocalOptimizer(ROWS, kind)
    frozen = rng.standard_normal(D)
    frozen.flags.writeable = False
    # Before the first step: nothing is allocated by a rejected call.
    with pytest.raises(ValueError, match="writes the direction over"):
        local.step(0, frozen)
    assert local.dimension is None
    for row in range(ROWS):
        local.step(row, rng.standard_normal(D))
    first = local._first.copy()
    second = local._second.copy() if kind == "adam" else None
    steps = list(local._steps)
    with pytest.raises(ValueError, match="writes the direction over"):
        local.step(1, frozen)
    assert local._first.tobytes() == first.tobytes()
    if kind == "adam":
        assert local._second.tobytes() == second.tobytes()
    assert local._steps == steps


def test_dimension_change_rejected(rng):
    local = LocalOptimizer(2, "sgd")
    local.step(0, rng.standard_normal(D))
    with pytest.raises(ValueError, match="dimension changed"):
        local.step(1, rng.standard_normal(D + 1))
