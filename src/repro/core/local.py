"""Per-worker local state: the base optimizer and the error-feedback carry.

Algorithm 2 and every Section 5 baseline apply a base optimizer on each
worker before they sync, and EF-signSGD carries each worker's compression
residual into its next round.  Each such quantity (momentum, Adam's two
moments, a residual) is one ``(rows, D)`` float64 array, a row per worker
(one row for a global optimizer such as PSGD's).  It is
allocated on the first step, from the gradient's length, and then updated
in place one row at a time.  The optimizer keeps no output array: a step
writes the worker's direction over the gradient it is handed, so the
caller's gradient matrix doubles as the message buffer and a round
allocates no ``(rows, D)`` array of its own.

The recurrences keep the float operations, and their order, of the
per-worker code they replaced, so every scheme's updates stay bit-identical.
Adam forms ``(scale · m̂) / (√v̂ + ε)``: Marsit passes ``scale = eta_l``;
the baselines pass ``1.0`` (exact) and multiply their ``lr`` in afterwards.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ErrorFeedback", "LocalOptimizer", "write_signs"]


def _check_dimension(dimension: int, vector: np.ndarray) -> None:
    if vector.shape != (dimension,):
        raise ValueError(
            f"gradient dimension changed from ({dimension},) to {vector.shape}"
        )


def write_signs(vector: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- where(vector >= 0, 1, -1)``; ``out`` may be ``vector``.

    Formed as ``2 · [vector >= 0] - 1``, which is exact and several times
    faster than ``np.where`` with scalar branches.
    """
    np.multiply(vector >= 0, 2.0, out=out)
    out -= 1.0
    return out


class LocalOptimizer:
    """Identity (``sgd``), heavy-ball ``momentum`` or ``adam``, per row.

    :meth:`step` advances one row's state and writes that row's direction
    over the gradient it is given, which the caller then hands on (Marsit's
    synchronizer takes the whole gradient matrix).  The gradient is
    consumed: the optimizer state lives elsewhere, so a caller may
    overwrite the returned direction once it has used it.
    """

    def __init__(
        self,
        rows: int,
        kind: str = "sgd",
        momentum: float = 0.9,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if kind not in ("sgd", "momentum", "adam"):
            raise ValueError(f"unknown base optimizer {kind!r}")
        if kind == "momentum" and not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if kind == "adam" and not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.rows, self.kind, self.momentum = rows, kind, momentum
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        #: The gradient length, fixed by the first step.
        self.dimension: int | None = None
        self._steps = [0] * rows

    def step(self, row: int, grad: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Feed ``grad`` to worker ``row``; writes the direction over
        ``grad`` and returns it: ``scale · grad`` (sgd), ``scale · b`` with
        ``b <- momentum · b + grad`` (momentum), or ``(scale · m̂) / (√v̂ +
        ε)`` (Adam, with the row's own bias-correction step count).

        A float64 ``grad`` must be writable; any other input is converted
        to a new float64 vector first, which is written and returned.
        """
        grad = np.asarray(grad, dtype=np.float64)
        if not grad.flags.writeable:
            raise ValueError(
                "LocalOptimizer.step writes the direction over its gradient; "
                "pass a writable float64 array (copy a read-only one)"
            )
        if self.dimension is None:
            self.dimension = grad.size
            if self.kind != "sgd":  # the momentum buffer, or Adam's m
                self._first = np.zeros((self.rows, grad.size))
            if self.kind == "adam":
                self._second = np.zeros((self.rows, grad.size))
                self._scratch = np.empty(grad.size)
        _check_dimension(self.dimension, grad)
        if self.kind == "sgd":
            return np.multiply(grad, scale, out=grad)
        first = self._first[row]
        if self.kind == "momentum":
            first *= self.momentum
            first += grad
            return np.multiply(first, scale, out=grad)
        self._steps[row] += 1
        t = self._steps[row]
        second, scratch = self._second[row], self._scratch
        first *= self.beta1
        first += np.multiply(grad, 1 - self.beta1, out=scratch)
        second *= self.beta2
        np.square(grad, out=scratch)
        second += np.multiply(scratch, 1 - self.beta2, out=scratch)
        # The gradient is read for the last time above: it becomes the output.
        np.divide(first, 1 - self.beta1**t, out=grad)
        grad *= scale
        np.sqrt(np.divide(second, 1 - self.beta2**t, out=scratch), out=scratch)
        scratch += self.eps
        grad /= scratch
        return grad


class ErrorFeedback:
    """Per-worker error-feedback residuals ``e``, one ``(rows, D)`` array.

    :meth:`carry` forms the corrected vector ``p = e + v`` in place and
    :meth:`settle` leaves ``e <- p - sent``.  The residuals start at zero,
    so a row's first carry computes ``0 + v`` (a ``-0.0`` becomes
    ``+0.0``), as EF-signSGD's memory does.
    """

    def __init__(self, rows: int) -> None:
        self.rows = rows
        #: The residuals; ``None`` before the first carry.
        self.residual: np.ndarray | None = None

    def carry(self, row: int, vector: np.ndarray) -> np.ndarray:
        """``e[row] <- e[row] + vector``; returns ``e[row]``, now ``p``."""
        vector = np.asarray(vector, dtype=np.float64)
        if self.residual is None:
            self.residual = np.zeros((self.rows, vector.size))
            self._scratch = np.empty(vector.size)
        _check_dimension(self.residual.shape[1], vector)
        corrected = self.residual[row]
        corrected += vector
        return corrected

    def settle(self, row: int, sent: np.ndarray) -> None:
        """``e[row] <- p - sent``: keep what the message did not carry."""
        self.residual[row] -= sent

    def scaled_sign(self, row: int, vector: np.ndarray, signs: np.ndarray) -> float:
        """EF-signSGD's step: ``p = e + vector`` is sent as
        ``(||p||_1 / D) · sign(p)`` (ties to ``+1``).  The signs go into
        ``signs``, which may be ``vector`` itself; returns the scale."""
        corrected = self.carry(row, vector)
        scratch = self._scratch
        scale = float(np.abs(corrected, out=scratch).sum() / corrected.size)
        write_signs(corrected, signs)
        self.settle(row, np.multiply(signs, scale, out=scratch))
        return scale
