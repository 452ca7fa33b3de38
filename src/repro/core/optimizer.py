"""Marsit-driven optimizers (paper Algorithm 2 and Section 5).

Algorithm 2 wires Marsit into SGD: the local stochastic gradient is scaled by
``eta_l`` and handed to Algorithm 1, whose output ``g_t`` is subtracted from
the (replicated) global model.  The experiments additionally use Momentum for
image classification and Adam for sentiment analysis; those variants apply
the base optimizer's gradient transform *locally, before* synchronization —
the same structure as 1-bit Adam — so the wire still carries one bit.

The transforms are :class:`~repro.core.local.LocalOptimizer` rows, the
per-worker state every baseline in :mod:`repro.train.strategies` shares.
Each worker's update is written over its gradient, so the trainer's
``(M, D)`` gradient matrix is what
:meth:`~repro.core.marsit.MarsitSynchronizer.synchronize` receives.

These classes return per-worker update vectors; applying them to model
parameters is the trainer's job (:mod:`repro.train`), keeping the optimizer
reusable for raw-vector experiments (quadratic objectives in the theory
benches).
"""

from __future__ import annotations

import numpy as np

from repro.comm.cluster import Cluster
from repro.core.local import LocalOptimizer
from repro.core.marsit import MarsitConfig, MarsitSynchronizer, SyncReport

__all__ = ["MarsitAdam", "MarsitMomentum", "MarsitSGD"]


class MarsitSGD:
    """Algorithm 2: plain SGD through Marsit synchronization."""

    def __init__(
        self,
        config: MarsitConfig,
        local_lr: float,
        num_workers: int,
        dimension: int,
    ) -> None:
        if local_lr <= 0:
            raise ValueError("local_lr must be positive")
        self.local_lr = local_lr
        self.synchronizer = MarsitSynchronizer(config, num_workers, dimension)
        self.num_workers = num_workers
        self.dimension = dimension
        self.local = LocalOptimizer(num_workers)

    def transform(self, rank: int, grad: np.ndarray) -> np.ndarray:
        """Worker ``rank``'s update ``eta_l ·`` (base-optimizer direction),
        written over ``grad`` and returned."""
        return self.local.step(rank, grad, scale=self.local_lr)

    def step(
        self,
        cluster: Cluster,
        grads: np.ndarray | list[np.ndarray],
        round_idx: int,
    ) -> SyncReport:
        """One synchronization round; ``global_updates`` are to be subtracted.

        ``grads`` is consumed: each worker's update is written over its
        gradient.  An ``(M, D)`` float64 matrix goes to the synchronizer as
        it is, which then adds it to the compensation a block at a time.
        """
        if len(grads) != self.num_workers:
            raise ValueError("one gradient per worker required")
        updates = [self.transform(rank, grad) for rank, grad in enumerate(grads)]
        if isinstance(grads, np.ndarray) and grads.dtype == np.float64:
            updates = grads
        return self.synchronizer.synchronize(cluster, updates, round_idx)


class MarsitMomentum(MarsitSGD):
    """Heavy-ball momentum applied locally before one-bit synchronization."""

    def __init__(
        self,
        config: MarsitConfig,
        local_lr: float,
        num_workers: int,
        dimension: int,
        momentum: float = 0.9,
    ) -> None:
        super().__init__(config, local_lr, num_workers, dimension)
        self.local = LocalOptimizer(num_workers, "momentum", momentum=momentum)


class MarsitAdam(MarsitSGD):
    """Adam preconditioning applied locally (1-bit-Adam-style) before sync."""

    def __init__(
        self,
        config: MarsitConfig,
        local_lr: float,
        num_workers: int,
        dimension: int,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(config, local_lr, num_workers, dimension)
        self.local = LocalOptimizer(
            num_workers, "adam", beta1=beta1, beta2=beta2, eps=eps
        )
