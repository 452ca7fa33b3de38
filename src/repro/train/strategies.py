"""Synchronization strategies: the paper's evaluation methods and baselines.

The six Table-2 schemes (PSGD, signSGD majority vote, EF-signSGD, SSDM,
Marsit-K, Marsit) plus the Section-3.2 cascading anti-pattern and the
Section-2 PowerSGD related-work baseline.

A :class:`SyncStrategy` consumes per-worker raw gradients for one round and
returns the per-worker parameter updates (all equal — every scheme here ends
in consensus).  Strategies own their optimizer state (momentum buffers,
error-feedback memories, Marsit compensation) so the trainer stays scheme
agnostic.

Wire accounting notes for the MAR-extended sign baselines (signSGD-MV,
EF-signSGD, SSDM): following Section 5 ("we extend them to MAR by
dynamically changing the bit length"), the sign vectors travel the ring as
integer sign-sums whose width grows as ``ceil(log2(m + 1)) + 1`` bits per
element after ``m`` hops (:func:`repro.allreduce.signsum_ring_allreduce`);
per-worker scales (l2 norms / l1 means) are all-gathered as ``M`` scalars, a
negligible O(M) extra.  The aggregate is then formed from the decoded signs
and scales exactly, so the *learning* behaviour matches the PS version while
the *traffic* exhibits the MAR bit-length expansion the paper measures.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.allreduce import get_topology, topology_names
from repro.allreduce.cascading import cascading_ring_allreduce
from repro.allreduce.ring import (
    ring_allgather_scalars,
    ring_allreduce_mean,
    signsum_ring_allreduce,
)
from repro.comm.bits import signed_int_bit_width
from repro.comm.cluster import Cluster
from repro.compression.ef import EFSignCompressor
from repro.compression.ssdm import SSDMCompressor, stochastic_sign
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

    Schemes that end in exact consensus repeat one read-only array in
    ``updates``; copy an entry before modifying it.

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


def _registry_entry(cluster: Cluster):
    """The cluster topology's registry entry, or None if unregistered."""
    name = cluster.topology.name
    return get_topology(name) if name in topology_names() else None


def _mean_allreduce(cluster: Cluster, vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Registry-driven full-precision mean all-reduce."""
    if cluster.num_workers == 1:
        return [np.asarray(vectors[0], dtype=np.float64).copy()]
    entry = _registry_entry(cluster)
    if entry is not None and entry.mean_allreduce is not None:
        return entry.mean_allreduce(cluster, vectors)
    return ring_allreduce_mean(cluster, vectors)


def _signsum_allreduce(
    cluster: Cluster, signs: list[np.ndarray]
) -> list[np.ndarray]:
    """Registry-driven integer sign-sum all-reduce (with expansion)."""
    entry = _registry_entry(cluster)
    if entry is not None and entry.signsum_allreduce is not None:
        return entry.signsum_allreduce(cluster, signs)
    return signsum_ring_allreduce(cluster, signs)


def _allgather_scalars(cluster: Cluster, values: list[float]) -> np.ndarray:
    """All-gather one float per worker along topology links."""
    if cluster.num_workers == 1:
        return np.array(values, dtype=np.float64)
    entry = _registry_entry(cluster)
    if entry is not None and entry.allgather_scalars is not None:
        return entry.allgather_scalars(cluster, values)
    return ring_allgather_scalars(cluster, values)


class SyncStrategy(abc.ABC):
    """One synchronization scheme; stateful across rounds."""

    name: str = "base"

    @abc.abstractmethod
    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        """Aggregate this round's gradients into per-worker updates."""


class _LocalMomentum:
    """Per-worker heavy-ball buffers shared by the sign-based baselines."""

    def __init__(self, num_workers: int, momentum: float) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._buffers: list[np.ndarray | None] = [None] * num_workers

    def apply(self, rank: int, grad: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if self._buffers[rank] is None:
            self._buffers[rank] = np.zeros_like(grad)
        buffer = self._buffers[rank]
        buffer *= self.momentum
        buffer += grad
        return buffer.copy()


class _LocalAdam:
    """Per-worker Adam preconditioning (unit-scale steps, no lr)."""

    def __init__(self, num_workers: int, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: list[np.ndarray | None] = [None] * num_workers
        self._v: list[np.ndarray | None] = [None] * num_workers
        self._t = [0] * num_workers

    def apply(self, rank: int, grad: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if self._m[rank] is None:
            self._m[rank] = np.zeros_like(grad)
            self._v[rank] = np.zeros_like(grad)
        self._t[rank] += 1
        t = self._t[rank]
        self._m[rank] = self.beta1 * self._m[rank] + (1 - self.beta1) * grad
        self._v[rank] = self.beta2 * self._v[rank] + (1 - self.beta2) * grad**2
        m_hat = self._m[rank] / (1 - self.beta1**t)
        v_hat = self._v[rank] / (1 - self.beta2**t)
        return m_hat / (np.sqrt(v_hat) + self.eps)


def _make_transform(num_workers: int, base_optimizer: str, momentum: float):
    """Per-worker gradient transform used by the sign-family baselines.

    ``momentum`` -> heavy-ball smoothing (the paper's image-task optimizer);
    ``adam`` -> unit-scale Adam preconditioning (sentiment task);
    ``sgd`` -> identity.
    """
    if base_optimizer == "momentum":
        smoother = _LocalMomentum(num_workers, momentum)
        return smoother.apply
    if base_optimizer == "adam":
        precond = _LocalAdam(num_workers)
        return precond.apply
    if base_optimizer == "sgd":
        return lambda rank, grad: np.asarray(grad, dtype=np.float64)
    raise ValueError(f"unknown base optimizer {base_optimizer!r}")


class _GlobalAdam:
    """Adam on the aggregated gradient (identical state on all workers)."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def apply(self, grad: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(grad)
            self._v = np.zeros_like(grad)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * grad**2
        m_hat = self._m / (1 - self.beta1**self._t)
        v_hat = self._v / (1 - self.beta2**self._t)
        return m_hat / (np.sqrt(v_hat) + self.eps)


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
        if base_optimizer == "momentum":
            self._momentum = momentum
            self._buffer: np.ndarray | None = None
        elif base_optimizer == "adam":
            self._adam = _GlobalAdam()
        elif base_optimizer != "sgd":
            raise ValueError(f"unknown base optimizer {base_optimizer!r}")

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        mean = _mean_allreduce(cluster, grads)[0]
        if self.base_optimizer == "momentum":
            if self._buffer is None:
                self._buffer = np.zeros_like(mean)
            self._buffer = self._momentum * self._buffer + mean
            direction = self._buffer
        elif self.base_optimizer == "adam":
            direction = self._adam.apply(mean)
        else:
            direction = mean
        update = self.lr * direction
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=32.0,
        )


class SignSGDMajorityStrategy(SyncStrategy):
    """signSGD with majority vote (Bernstein et al.), extended to MAR.

    Workers take the sign of their (momentum-smoothed) gradient; signs are
    summed over the ring with growing bit width; the update is
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
        self._transform = _make_transform(num_workers, base_optimizer, momentum)

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        signs = [
            np.where(self._transform(rank, grad) >= 0, 1.0, -1.0)
            for rank, grad in enumerate(grads)
        ]
        if cluster.num_workers == 1:
            totals = signs[0]
        else:
            totals = _signsum_allreduce(cluster, signs)[0]
        update = self.lr * np.where(totals >= 0, 1.0, -1.0)
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=self._expanded_bits(),
        )

    def _expanded_bits(self) -> float:
        return float(signed_int_bit_width(max(1, self.num_workers)))


class EFSignSGDStrategy(SyncStrategy):
    """EF-signSGD (Karimireddy et al.) extended to MAR.

    Each worker compresses its momentum-smoothed gradient to a scaled sign
    with local error feedback; the mean of the decoded worker messages is the
    update.  Signs ride the expanding sign-sum ring; scales are all-gathered.
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
        self._transform = _make_transform(num_workers, base_optimizer, momentum)
        self._compressors = [EFSignCompressor() for _ in range(num_workers)]

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        signs, scales = [], []
        for rank, grad in enumerate(grads):
            smoothed = self._transform(rank, grad)
            payload = self._compressors[rank].compress(self.lr * smoothed)
            signs.append(payload.bits.to_signs())
            scales.append(payload.scale)
        if cluster.num_workers > 1:
            _signsum_allreduce(cluster, signs)
            gathered = _allgather_scalars(cluster, scales)
        else:
            gathered = np.array(scales)
        decoded = [gathered[rank] * signs[rank] for rank in range(self.num_workers)]
        update = np.mean(decoded, axis=0)
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=float(self.num_workers.bit_length() + 1),
        )


class SSDMStrategy(SyncStrategy):
    """SSDM — stochastic sign descent (Safaryan & Richtarik) under MAR.

    Each worker draws the SSDM stochastic sign of its (transformed) gradient
    (``P(+1) = 1/2 + g_j / (2||g||)``, the unbiased direction sample of
    Appendix A) and the update is ``lr * mean_m(sign~_m)`` — *sign descent*,
    as the method's name says: magnitude information enters only through the
    flip probabilities, so the step size is controlled by ``lr`` like
    signSGD, not by the (huge) l2 norm.  The sign sums ride the expanding
    integer ring (Section 3.1's bit-length growth).

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
        self._transform = _make_transform(num_workers, base_optimizer, momentum)
        seeds = np.random.SeedSequence(seed).spawn(num_workers)
        self._rngs = [np.random.default_rng(s) for s in seeds]

    def _draw_signs(self, vector: np.ndarray, rng) -> tuple[np.ndarray, float]:
        """Stochastic signs with global or per-block l2 flip probabilities.

        Block-wise norms (the SSDM paper's rho-norm practical variant) keep
        the per-coordinate signal ``~1/sqrt(block)`` instead of
        ``~1/sqrt(D)``, which is what lets SSDM train large flat-gradient
        models like the transformer workload.
        """
        if self.block_size is None or vector.size <= self.block_size:
            return stochastic_sign(vector, rng)
        block = self.block_size
        num_blocks = (vector.size + block - 1) // block
        padded = np.zeros(num_blocks * block)
        padded[: vector.size] = vector
        blocks = padded.reshape(num_blocks, block)
        norms = np.linalg.norm(blocks, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        probs = 0.5 + blocks / (2.0 * safe[:, None])
        draws = rng.random(blocks.shape)
        signs = np.where(draws < probs, 1.0, -1.0).reshape(-1)[: vector.size]
        return signs, float(np.linalg.norm(vector))

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        signs, norms = [], []
        for rank, grad in enumerate(grads):
            transformed = self._transform(rank, grad)
            sign, norm = self._draw_signs(transformed, self._rngs[rank])
            signs.append(sign)
            norms.append(norm)
        if cluster.num_workers > 1:
            _signsum_allreduce(cluster, signs)
            if self.norm_scaled:
                gathered = _allgather_scalars(cluster, norms)
            else:
                gathered = np.ones(self.num_workers)
        else:
            gathered = np.array(norms) if self.norm_scaled else np.ones(1)
        estimates = [gathered[rank] * signs[rank] for rank in range(self.num_workers)]
        update = self.lr * np.mean(estimates, axis=0)
        return StepResult(
            updates=_shared_update(update, self.num_workers),
            bits_per_element=float(self.num_workers.bit_length() + 1),
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
        self._momentum = (
            _LocalMomentum(num_workers, momentum) if momentum > 0 else None
        )
        seeds = np.random.SeedSequence(seed).spawn(num_workers)
        self._rngs = [np.random.default_rng(s) for s in seeds]

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        if self._momentum is not None:
            grads = [
                self._momentum.apply(rank, grad) for rank, grad in enumerate(grads)
            ]
        vectors = [np.asarray(grad, dtype=np.float64) for grad in grads]
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
    all-reduce ``P = G Q`` (first ring pass), orthonormalize identically,
    then all-reduce ``Q = G^T P_hat`` (second ring pass) — the two passes
    are *sequential* because the second depends on the first, which is
    exactly the paper's Section 2 criticism: "requires to transmit multiple
    sequential vectors at a synchronization, which undermines the training
    efficiency under RAR."  The latency term doubles even though the volume
    is small.
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
        self._transform = _make_transform(num_workers, base_optimizer, momentum)
        self._memories: list[np.ndarray | None] = [None] * num_workers
        self._q: np.ndarray | None = None
        self._seed = seed

    def _matrix_shape(self, dimension: int) -> tuple[int, int]:
        import math

        rows = max(1, int(math.isqrt(dimension)))
        return rows, math.ceil(dimension / rows)

    def step(
        self, cluster: Cluster, grads: list[np.ndarray], round_idx: int
    ) -> StepResult:
        dimension = int(np.asarray(grads[0]).size)
        rows, cols = self._matrix_shape(dimension)
        rank = min(self.rank, rows, cols)
        if self._q is None or self._q.shape != (cols, rank):
            self._q = np.random.default_rng(self._seed).standard_normal(
                (cols, rank)
            )
        matrices = []
        corrected_vectors = []
        for worker, grad in enumerate(grads):
            corrected = self.lr * self._transform(worker, grad)
            if self._memories[worker] is not None:
                corrected = corrected + self._memories[worker]
            corrected_vectors.append(corrected)
            padded = np.zeros(rows * cols)
            padded[:dimension] = corrected
            matrices.append(padded.reshape(rows, cols))

        # First sequential pass: all-reduce P = G Q.
        p_locals = [(g @ self._q).reshape(-1) for g in matrices]
        if cluster.num_workers > 1:
            p_mean = ring_allreduce_mean(cluster, p_locals)[0]
        else:
            p_mean = p_locals[0]
        p_hat, _ = np.linalg.qr(p_mean.reshape(rows, rank))

        # Second sequential pass: all-reduce Q = G^T P_hat.
        q_locals = [(g.T @ p_hat).reshape(-1) for g in matrices]
        if cluster.num_workers > 1:
            q_mean = ring_allreduce_mean(cluster, q_locals)[0]
        else:
            q_mean = q_locals[0]
        self._q = q_mean.reshape(cols, rank)

        decoded_flat = (p_hat @ self._q.T).reshape(-1)[:dimension]
        for worker in range(self.num_workers):
            self._memories[worker] = corrected_vectors[worker] - decoded_flat
        update = decoded_flat
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
