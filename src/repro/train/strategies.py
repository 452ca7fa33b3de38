"""Synchronization strategies: the paper's evaluation methods and baselines.

The six Table-2 schemes (PSGD, signSGD majority vote, EF-signSGD, SSDM,
Marsit-K, Marsit) plus the Section-3.2 cascading anti-pattern and the
Section-2 PowerSGD related-work baseline.

A :class:`SyncStrategy` consumes per-worker raw gradients for one round and
returns the per-worker parameter updates (all equal — every scheme here ends
in consensus).  Strategies own their optimizer state so the trainer stays
scheme agnostic.  Every scheme's local base optimizer (identity, momentum
or Adam; PSGD's global one is a single row) and EF-signSGD's residual is
a :mod:`repro.core.local` object: one ``(M, D)`` array per quantity,
updated in place row by row (PowerSGD keeps its residual zero-padded to
its matrix shape).  A strategy consumes the gradients it is handed: it
writes each worker's direction, then its message (signs, scaled signs),
over that worker's gradient and passes those vectors to the collective.
The trainer's ``(M, D)`` gradient matrix is thus every scheme's message
buffer, and a round allocates no ``(M, D)`` array of its own.

Wire accounting notes for the MAR-extended sign baselines (signSGD-MV,
EF-signSGD, SSDM): following Section 5 ("we extend them to MAR by
dynamically changing the bit length"), the sign vectors travel the
topology's sum schedule as integer sign sums of ``ceil(log2(m + 1)) + 1``
bits per element over ``m`` contributors (its registered
``signsum_allreduce``); per-worker scales (l2 norms / l1 means) are
all-gathered as ``M`` scalars, a negligible O(M) extra.  The aggregate is
then formed from the decoded signs and scales exactly, so the *learning*
behaviour matches the PS version while the *traffic* exhibits the MAR
bit-length expansion the paper measures.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from repro.allreduce import get_topology
from repro.allreduce.cascading import cascading_ring_allreduce
from repro.comm.bits import signed_int_bit_width
from repro.comm.cluster import Cluster
from repro.compression.ssdm import SSDMCompressor, stochastic_sign
from repro.core.local import ErrorFeedback, LocalOptimizer, write_signs
from repro.core.marsit import MarsitConfig
from repro.core.optimizer import MarsitAdam, MarsitMomentum, MarsitSGD
from repro.obs.hooks import CallbackList

__all__ = [
    "CascadingSSDMStrategy",
    "PowerSGDStrategy",
    "EFSignSGDStrategy",
    "MarsitStrategy",
    "PSGDStrategy",
    "SSDMStrategy",
    "SignSGDMajorityStrategy",
    "StepResult",
    "SyncStrategy",
]


@dataclass
class StepResult:
    """Per-round outcome: updates to subtract, and what went on the wire.

    Entries are read-only and shared: schemes that end in exact consensus
    repeat one array, and Marsit's full-precision rounds repeat the mean
    all-reduce's one array per distinct output.  Copy an entry before
    modifying it.

    ``plan_digest``/``num_plan_steps`` identify the compiled
    :class:`~repro.sched.plan.SyncPlan` for strategies that run one (Marsit);
    other schemes leave the defaults.
    """

    updates: list[np.ndarray] = field(repr=False)
    bits_per_element: float = 32.0
    plan_digest: str | None = None
    num_plan_steps: int = 0
    #: True when the round ran crash recovery (degraded topology + forced
    #: full-precision resync) — only Marsit sets it.
    recovered: bool = False


def _shared_update(update: np.ndarray, num_workers: int) -> list[np.ndarray]:
    """One consensus update, marked read-only and repeated for every worker."""
    update.flags.writeable = False
    return [update] * num_workers


def _mean_allreduce(cluster: Cluster, vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Registry-driven full-precision mean all-reduce."""
    if cluster.num_workers == 1:
        return [np.asarray(vectors[0], dtype=np.float64).copy()]
    return get_topology(cluster.topology.name).mean_allreduce(cluster, vectors)


def _signsum_allreduce(
    cluster: Cluster, signs: list[np.ndarray]
) -> list[np.ndarray]:
    """Registry-driven integer sign-sum all-reduce (with expansion)."""
    return get_topology(cluster.topology.name).signsum_allreduce(cluster, signs)


def _mean_rows(rows: list[np.ndarray]) -> np.ndarray:
    """``np.mean(rows, axis=0)`` without stacking the rows: the same
    row-by-row sum, then one division, so the floats are identical."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    total /= len(rows)
    return total


def _sign_sum_bits(num_workers: int) -> float:
    """Reported bits/element of a sign sum over ``num_workers`` (Sec. 3.1)."""
    return float(signed_int_bit_width(max(1, num_workers)))


def _scalar_allgather(cluster: Cluster):
    """The collective that all-gathers one float per worker, called as
    ``allgather(cluster, values)``.  A step looks it up before it changes
    any state, so a topology that registers none raises first."""
    if cluster.num_workers == 1:
        return lambda _cluster, values: np.array(values, dtype=np.float64)
    name = cluster.topology.name
    allgather = get_topology(name).allgather_scalars
    if allgather is None:
        raise ValueError(
            f"topology {name!r} registers no allgather_scalars collective; "
            "EF-signSGD and norm-scaled SSDM need it for per-worker scales"
        )
    return allgather


def _matrix_shape(dimension: int) -> tuple[int, int]:
    """PowerSGD's near-square ``rows x cols`` target for a flat gradient;
    ``rows · cols >= dimension``, the tail padded with zeros."""
    rows = max(1, math.isqrt(dimension))
    return rows, math.ceil(dimension / rows)


class SyncStrategy(abc.ABC):
    """One synchronization scheme; stateful across rounds."""

    name: str = "base"

    @abc.abstractmethod
    def step(
        self,
        cluster: Cluster,
        grads: np.ndarray | list[np.ndarray],
        round_idx: int,
    ) -> StepResult:
        """Aggregate this round's gradients into per-worker updates.

        ``grads`` (an ``(M, D)`` matrix or ``M`` vectors) is consumed: a
        scheme may write its directions and messages over it, so a caller
        that needs the gradients afterwards hands over copies.
        """


class PSGDStrategy(SyncStrategy):
    """Non-compressed parallel SGD (the paper's FP32 baseline).

    The mean gradient is all-reduced in FP32 and a single *global* optimizer
    (momentum or Adam) produces the update — the classical data-parallel
    recipe.
    """

    name = "psgd"

    def __init__(
        self,
        lr: float,
        num_workers: int,
        momentum: float = 0.9,
        base_optimizer: str = "momentum",
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.num_workers = num_workers
        self.base_optimizer = base_optimizer
        self._optimizer = LocalOptimizer(1, base_optimizer, momentum=momentum)
        # The all-reduce result is read-only: the optimizer consumes a copy.
        self._mean: np.ndarray | None = None

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        mean = _mean_allreduce(cluster, grads)[0]
        if self._mean is None:
            self._mean = np.empty_like(mean)
        np.copyto(self._mean, mean)
        update = self.lr * self._optimizer.step(0, self._mean)
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=32.0,
        )


class SignSGDMajorityStrategy(SyncStrategy):
    """signSGD with majority vote (Bernstein et al.), extended to MAR.

    Workers take the sign of their (momentum-smoothed) gradient; signs are
    summed over the topology with growing bit width; the update is
    ``lr * sign(sum)`` — majority vote, ties to +1.
    """

    name = "signsgd-mv"

    def __init__(
        self,
        lr: float,
        num_workers: int,
        momentum: float = 0.9,
        base_optimizer: str = "momentum",
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.num_workers = num_workers
        self._local = LocalOptimizer(num_workers, base_optimizer, momentum=momentum)

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        signs = []
        for rank, grad in enumerate(grads):
            direction = self._local.step(rank, grad)
            signs.append(write_signs(direction, direction))
        if cluster.num_workers == 1:
            totals = signs[0]
        else:
            totals = _signsum_allreduce(cluster, signs)[0]
        update = self.lr * np.where(totals >= 0, 1.0, -1.0)
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=_sign_sum_bits(self.num_workers),
        )


class EFSignSGDStrategy(SyncStrategy):
    """EF-signSGD (Karimireddy et al.) extended to MAR.

    Each worker compresses its momentum-smoothed gradient to a scaled sign
    with local error feedback; the mean of the decoded worker messages is the
    update.  Signs ride the expanding sign sum; scales are all-gathered.
    """

    name = "ef-signsgd"

    def __init__(
        self,
        lr: float,
        num_workers: int,
        momentum: float = 0.9,
        base_optimizer: str = "momentum",
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.num_workers = num_workers
        self._local = LocalOptimizer(num_workers, base_optimizer, momentum=momentum)
        self._feedback = ErrorFeedback(num_workers)

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        allgather = _scalar_allgather(cluster)
        scales, messages = [], []
        for rank, grad in enumerate(grads):
            direction = self._local.step(rank, grad)
            direction *= self.lr
            # The signs overwrite the direction once the residual holds it.
            scales.append(self._feedback.scaled_sign(rank, direction, direction))
            messages.append(direction)
        if cluster.num_workers > 1:
            _signsum_allreduce(cluster, messages)
        for message, scale in zip(messages, allgather(cluster, scales)):
            message *= scale
        update = _mean_rows(messages)
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=_sign_sum_bits(self.num_workers),
        )


class SSDMStrategy(SyncStrategy):
    """SSDM — stochastic sign descent (Safaryan & Richtarik) under MAR.

    Each worker draws the SSDM stochastic sign of its (transformed) gradient
    (``P(+1) = 1/2 + g_j / (2||g||)``, the unbiased direction sample of
    Appendix A) and the update is ``lr * mean_m(sign~_m)`` — *sign descent*,
    as the method's name says: magnitude information enters only through the
    flip probabilities, so the step size is controlled by ``lr`` like
    signSGD, not by the (huge) l2 norm.  The sign sums ride the expanding
    integer sum schedule (Section 3.1's bit-length growth).

    ``norm_scaled=True`` switches to the raw unbiased estimator
    ``lr * mean_m(norm_m * sign~_m)`` (Appendix A's ``s_2``) — much higher
    variance; used by the deviation benches.
    """

    name = "ssdm"

    def __init__(
        self,
        lr: float,
        num_workers: int,
        seed: int = 0,
        momentum: float = 0.9,
        base_optimizer: str = "momentum",
        norm_scaled: bool = False,
        block_size: int | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.num_workers = num_workers
        self.norm_scaled = norm_scaled
        self.block_size = block_size
        self._local = LocalOptimizer(num_workers, base_optimizer, momentum=momentum)
        seeds = np.random.SeedSequence(seed).spawn(num_workers)
        self._rngs = [np.random.default_rng(s) for s in seeds]

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        allgather = _scalar_allgather(cluster) if self.norm_scaled else None
        norms, messages = [], []
        for rank, grad in enumerate(grads):
            direction = self._local.step(rank, grad)
            if self.norm_scaled:
                norms.append(float(np.linalg.norm(direction)))
            signs, _ = stochastic_sign(direction, self._rngs[rank], self.block_size)
            direction[...] = signs
            messages.append(direction)
        if cluster.num_workers > 1:
            _signsum_allreduce(cluster, messages)
        if self.norm_scaled:
            for message, norm in zip(messages, allgather(cluster, norms)):
                message *= norm
        update = self.lr * _mean_rows(messages)
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=_sign_sum_bits(self.num_workers),
        )


class CascadingSSDMStrategy(SyncStrategy):
    """SSDM through cascading compression — the Section 3.2 anti-pattern.

    One bit per hop, but every hop decompresses, adds, and recompresses; the
    deviation grows per Theorem 3 and training degrades or diverges as M
    grows (Table 1).

    ``normalize`` (default True) rescales the decoded aggregate to the mean
    of the workers' local gradient norms.  The literal decode carries an
    l2-norm that multiplies by ~sqrt(D) per hop (exactly Theorem 3's
    ``(2D)^M`` blow-up), which at any stepsize destroys the model within one
    round; a practical cascading implementation — and evidently the paper's
    Table 1 runs, which converge slowly at M = 3 — must control that scale.
    Normalization keeps the *directional* degradation (Figure 1b's ~56%
    matching rate and the worsening with M) while making the magnitude
    comparable to a real gradient; ``normalize=False`` gives the literal
    exploding variant for the Theorem 3 benches.
    """

    name = "cascading"

    def __init__(
        self,
        lr: float,
        num_workers: int,
        seed: int = 0,
        normalize: bool = True,
        compressor=None,
        momentum: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.num_workers = num_workers
        self.normalize = normalize
        self._compressor = compressor if compressor is not None else SSDMCompressor()
        self._local = LocalOptimizer(
            num_workers, "momentum" if momentum > 0 else "sgd", momentum=momentum
        )
        seeds = np.random.SeedSequence(seed).spawn(num_workers)
        self._rngs = [np.random.default_rng(s) for s in seeds]

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        vectors = [self._local.step(rank, grad) for rank, grad in enumerate(grads)]
        if cluster.num_workers == 1:
            mean = vectors[0]
        else:
            mean = cascading_ring_allreduce(
                cluster, vectors, self._compressor, self._rngs
            )[0]
        if self.normalize and cluster.num_workers > 1:
            target = float(np.mean([np.linalg.norm(v) for v in vectors]))
            scale = float(np.linalg.norm(mean))
            if scale > 0:
                mean = mean * (target / scale)
        update = self.lr * mean
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=1.0,
        )


class PowerSGDStrategy(SyncStrategy):
    """PowerSGD (Vogels et al.) under MAR — the related-work baseline.

    The gradient matrix is approximated as ``P Q^T`` by one warm-started
    subspace iteration with error feedback.  Distributed form: all workers
    all-reduce ``P = G Q`` (first all-reduce pass), orthonormalize identically,
    then all-reduce ``Q = G^T P_hat`` (second pass) — the two passes
    are *sequential* because the second depends on the first, which is
    exactly the paper's Section 2 criticism: "requires to transmit multiple
    sequential vectors at a synchronization, which undermines the training
    efficiency under RAR."  The latency term doubles even though the volume
    is small.

    Each worker's error-feedback residual is a row of one ``(M, rows ·
    cols)`` array whose tail past ``D`` stays zero, so the row reshapes
    straight into the worker's padded ``rows x cols`` matrix and a round
    allocates no padded copy.
    """

    name = "powersgd"

    def __init__(
        self,
        lr: float,
        num_workers: int,
        rank: int = 2,
        momentum: float = 0.9,
        base_optimizer: str = "momentum",
        seed: int = 0,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.lr = lr
        self.num_workers = num_workers
        self.rank = rank
        self._local = LocalOptimizer(num_workers, base_optimizer, momentum=momentum)
        self._residual: np.ndarray | None = None
        self._q: np.ndarray | None = None
        self._seed = seed

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        directions = []
        for worker, grad in enumerate(grads):
            direction = self._local.step(worker, grad)
            direction *= self.lr
            directions.append(direction)
        dimension = directions[0].size
        rows, cols = _matrix_shape(dimension)
        rank = min(self.rank, rows, cols)
        if self._residual is None:
            self._q = np.random.default_rng(self._seed).standard_normal(
                (cols, rank)
            )
            self._residual = np.zeros((self.num_workers, rows * cols))
            # Copied, not added to the zeros, so a -0.0 keeps its sign.
            for worker, direction in enumerate(directions):
                self._residual[worker, :dimension] = direction
        else:
            for worker, direction in enumerate(directions):
                self._residual[worker, :dimension] += direction
        matrices = self._residual.reshape(self.num_workers, rows, cols)

        # First sequential pass: all-reduce P = G Q.
        p_locals = [(g @ self._q).reshape(-1) for g in matrices]
        p_mean = _mean_allreduce(cluster, p_locals)[0]
        p_hat, _ = np.linalg.qr(p_mean.reshape(rows, rank))

        # Second sequential pass: all-reduce Q = G^T P_hat.
        q_locals = [(g.T @ p_hat).reshape(-1) for g in matrices]
        q_mean = _mean_allreduce(cluster, q_locals)[0]
        self._q = q_mean.reshape(cols, rank)

        update = (p_hat @ self._q.T).reshape(-1)[:dimension]
        self._residual[:, :dimension] -= update
        bits = 32.0 * rank * (rows + cols) / dimension
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=bits,
        )


class MarsitStrategy(SyncStrategy):
    """Marsit (Algorithm 2) with a selectable local base optimizer.

    ``full_precision_every=K`` gives Marsit-K (e.g. Marsit-100);
    ``None`` gives plain Marsit.

    ``local_lr_decay`` multiplies the local stepsize after every
    full-precision synchronization — the paper's "decays by a factor of 10
    every full-precision synchronization" schedule (Section 5), made
    configurable because short simulated runs need gentler factors.

    Tuning note: ``global_lr`` (eta_s) should sit near the per-element RMS of
    the local updates ``eta_l * u``; far below it the compensation vector
    grows linearly between resets and the K-round full-precision "dump"
    overshoots (the instability Theorem 1's eta_s = 1/sqrt(TD) avoids).
    """

    name = "marsit"

    def __init__(
        self,
        local_lr: float,
        global_lr: float,
        num_workers: int,
        dimension: int,
        full_precision_every: int | None = None,
        base_optimizer: str = "momentum",
        momentum: float = 0.9,
        seed: int = 0,
        global_lr_schedule=None,
        local_lr_decay: float = 1.0,
        segment_elems: int | None = None,
        engine: str = "batched",
        verify_consensus: bool = True,
        callbacks=None,
    ) -> None:
        config = MarsitConfig(
            global_lr=global_lr,
            full_precision_every=full_precision_every,
            seed=seed,
            global_lr_schedule=global_lr_schedule,
            segment_elems=segment_elems,
            engine=engine,
            verify_consensus=verify_consensus,
        )
        if base_optimizer == "momentum":
            self._optimizer = MarsitMomentum(
                config, local_lr, num_workers, dimension, momentum=momentum
            )
        elif base_optimizer == "adam":
            self._optimizer = MarsitAdam(config, local_lr, num_workers, dimension)
        elif base_optimizer == "sgd":
            self._optimizer = MarsitSGD(config, local_lr, num_workers, dimension)
        else:
            raise ValueError(f"unknown base optimizer {base_optimizer!r}")
        self.num_workers = num_workers
        self.callbacks = CallbackList(callbacks)
        if not 0.0 < local_lr_decay <= 1.0:
            raise ValueError("local_lr_decay must be in (0, 1]")
        self.local_lr_decay = local_lr_decay
        if full_precision_every is not None:
            self.name = f"marsit-{full_precision_every}"

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        self.callbacks.on_round_start(round_idx, cluster=cluster, strategy=self)
        report = self._optimizer.step(cluster, grads, round_idx)
        if (
            report.full_precision
            and round_idx > 0
            and self.local_lr_decay != 1.0
        ):
            self._optimizer.local_lr *= self.local_lr_decay
        result = StepResult(
            updates=report.global_updates,
            bits_per_element=report.bits_per_element,
            plan_digest=report.plan_digest,
            num_plan_steps=report.num_plan_steps,
            recovered=report.recovered,
        )
        self.callbacks.on_sync_done(
            round_idx, result, cluster=cluster, strategy=self
        )
        return result
