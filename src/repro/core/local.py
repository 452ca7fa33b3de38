"""Per-worker local state: the base optimizer and the error-feedback carry.

Algorithm 2 and every Section 5 baseline apply a base optimizer on each
worker before they sync, and the error-feedback schemes carry each worker's
compression residual into its next round.  Each quantity here is one
``(rows, D)`` float64 array, a row per worker (one row for a global
optimizer such as PSGD's).  It is allocated on the first step, from the
gradient's length, and then updated in place one row at a time, so a round
allocates no ``(rows, D)`` temporary.

The recurrences keep the float operations, and their order, of the
per-worker code they replaced, so every scheme's updates stay bit-identical.
Adam forms ``(scale · m̂) / (√v̂ + ε)``: Marsit passes ``scale = eta_l``;
the baselines pass ``1.0`` (exact) and multiply their ``lr`` in afterwards.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ErrorFeedback", "LocalOptimizer", "write_signs"]


def _check_dimension(state: np.ndarray, vector: np.ndarray) -> None:
    if vector.shape != state.shape[1:]:
        raise ValueError(
            f"gradient dimension changed from {state.shape[1:]} to {vector.shape}"
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
    into :attr:`out`, the ``(rows, D)`` array a caller hands on (Marsit's
    synchronizer takes all of it).  A caller may overwrite a row of ``out``
    once it has used it: the optimizer state lives elsewhere.
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
        #: The directions :meth:`step` writes, one row per worker.
        self.out: np.ndarray | None = None
        self._steps = [0] * rows

    def step(self, row: int, grad: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Feed ``grad`` to worker ``row``; returns ``out[row]``, which is
        ``scale · grad`` (sgd), ``scale · b`` with ``b <- momentum · b +
        grad`` (momentum), or ``(scale · m̂) / (√v̂ + ε)`` (Adam, with the
        row's own bias-correction step count)."""
        grad = np.asarray(grad, dtype=np.float64)
        if self.out is None:
            self.out = np.empty((self.rows, grad.size))
            if self.kind != "sgd":  # the momentum buffer, or Adam's m
                self._first = np.zeros_like(self.out)
            if self.kind == "adam":
                self._second = np.zeros_like(self.out)
                self._scratch = np.empty(grad.size)
        _check_dimension(self.out, grad)
        out = self.out[row]
        if self.kind == "sgd":
            return np.multiply(grad, scale, out=out)
        first = self._first[row]
        if self.kind == "momentum":
            first *= self.momentum
            first += grad
            return np.multiply(first, scale, out=out)
        self._steps[row] += 1
        t = self._steps[row]
        second, scratch = self._second[row], self._scratch
        first *= self.beta1
        first += np.multiply(grad, 1 - self.beta1, out=out)
        second *= self.beta2
        second += np.multiply(np.square(grad, out=out), 1 - self.beta2, out=out)
        np.divide(first, 1 - self.beta1**t, out=out)
        out *= scale
        np.sqrt(np.divide(second, 1 - self.beta2**t, out=scratch), out=scratch)
        scratch += self.eps
        out /= scratch
        return out


class ErrorFeedback:
    """Per-worker error-feedback residuals ``e``, one ``(rows, D)`` array.

    :meth:`carry` forms the corrected vector ``p = e + v`` in place and
    :meth:`settle` leaves ``e <- p - sent``.  With ``zero_start`` a row's
    first carry computes ``0 + v`` (a ``-0.0`` becomes ``+0.0``), as
    EF-signSGD's memory does; without it the first carry copies ``v`` as it
    is, as PowerSGD's first round does.
    """

    def __init__(self, rows: int, zero_start: bool = True) -> None:
        self.rows = rows
        #: The residuals; ``None`` before the first carry.
        self.residual: np.ndarray | None = None
        self._empty = [not zero_start] * rows

    def carry(self, row: int, vector: np.ndarray) -> np.ndarray:
        """``e[row] <- e[row] + vector``; returns ``e[row]``, now ``p``."""
        vector = np.asarray(vector, dtype=np.float64)
        if self.residual is None:
            self.residual = np.zeros((self.rows, vector.size))
            self._scratch = np.empty(vector.size)
        _check_dimension(self.residual, vector)
        corrected = self.residual[row]
        if self._empty[row]:
            self._empty[row] = False
            np.copyto(corrected, vector)
        else:
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
