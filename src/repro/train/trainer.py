"""The M-worker lock-step distributed trainer.

Because every strategy in this library returns *identical* updates on all
workers (consensus is part of each scheme), the trainer keeps one physical
model and runs per-worker forward/backward passes against per-worker batches
— exactly equivalent to M replicas that never diverge, at 1/M the memory.
Tests assert the consensus property separately.

Per round the trainer:

1. draws one batch per worker from its iid shard,
2. computes per-worker gradients (charging computation time once — workers
   run in parallel),
3. hands the gradients to the :class:`SyncStrategy` (which does all
   communication through the cluster, charging bytes and time),
4. applies the consensus update, and
5. periodically evaluates on the held-out set, recording accuracy against
   rounds, simulated seconds, and cumulative bytes — the axes of
   Figures 3, 4a and 4b.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.allreduce import get_topology, topology_names
from repro.comm.cluster import Cluster
from repro.comm.timing import CostModel, Phase
from repro.data.sharding import WorkerBatchIterator, shard_dirichlet, shard_iid
from repro.data.synthetic import ArrayDataset
from repro.faults import FaultInjector, FaultPlan
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.obs.hooks import CallbackList, TrainerCallback
from repro.obs.tracer import Observability
from repro.train.metrics import RoundRecord, TrainResult, evaluate
from repro.train.strategies import SyncStrategy

__all__ = ["DistributedTrainer", "TrainConfig", "make_cluster"]


@dataclass
class TrainConfig:
    """Distributed-run shape.

    Attributes:
        num_workers: M.
        rounds: synchronizations T.
        batch_size: per-worker batch size (global batch = M x this).
        topology: any name in :func:`repro.allreduce.topology_names` —
            ``"ring"`` (RAR), ``"torus"`` (TAR), ``"star"`` (PS), ``"tree"``
            (tree all-reduce), ``"halving_doubling"`` (butterfly), ...
        torus_shape: (rows, cols) when topology is torus.
        eval_every: evaluation cadence in rounds.
        eval_max_batches: cap on evaluation batches (None = full test set).
        seed: controls sharding and batch order.
        divergence_loss: a train loss above this (or non-finite) marks the
            run diverged and stops it — how Table 1 detects divergence.
        sharding: ``"iid"`` (the paper's shuffled-cloud assumption) or
            ``"dirichlet"`` (label-skewed stress regime).
        dirichlet_alpha: skew parameter when ``sharding == "dirichlet"``.
        clip_grad_norm: when set, each worker's gradient is rescaled to at
            most this l2 norm before synchronization (standard transformer
            hygiene; applied identically by every scheme for fairness).
        byzantine_workers: the first N workers send *inverted and 10x
            amplified* gradients every round — the adversary of signSGD's
            fault-tolerance analysis (Bernstein et al., paper ref [13]).
            Sign/vote schemes bound every worker's per-coordinate influence
            to ±1, so a minority adversary is outvoted; mean-based
            aggregation is dominated by the amplified liar.
        faults: optional :class:`~repro.faults.plan.FaultPlan`; when set,
            a :class:`~repro.faults.inject.FaultInjector` is attached to the
            cluster and the run sees jitter/stragglers/drops/bit-flips/
            crashes exactly as the plan prescribes.  ``WorkerCrash`` events
            require the Marsit strategy (the only scheme with a recovery
            path).
        local_steps: local updates per synchronization (paper Section 5:
            "clients perform multiple local updates between two successive
            synchronizations").  Each worker walks ``local_steps`` plain-SGD
            steps of size ``local_step_lr`` from the shared parameters on
            its own batches; the *mean* of the gradients along that walk is
            handed to the strategy, so per-round gradient scales stay
            comparable to the 1-step case while communication frequency
            drops ``local_steps``-fold.
        local_step_lr: inner stepsize when ``local_steps > 1``.
    """

    num_workers: int
    rounds: int
    batch_size: int = 32
    topology: str = "ring"
    torus_shape: tuple[int, int] | None = None
    eval_every: int = 10
    eval_max_batches: int | None = None
    seed: int = 0
    divergence_loss: float = 1e4
    sharding: str = "iid"
    dirichlet_alpha: float = 0.5
    clip_grad_norm: float | None = None
    byzantine_workers: int = 0
    faults: FaultPlan | None = None
    local_steps: int = 1
    local_step_lr: float = 0.01

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.topology not in topology_names():
            raise ValueError(
                f"unknown topology {self.topology!r}; registered "
                f"topologies: {', '.join(topology_names())}"
            )
        if self.sharding not in ("iid", "dirichlet"):
            raise ValueError(f"unknown sharding {self.sharding!r}")
        if self.clip_grad_norm is not None and self.clip_grad_norm <= 0:
            raise ValueError("clip_grad_norm must be positive or None")
        if not 0 <= self.byzantine_workers <= self.num_workers:
            raise ValueError("byzantine_workers must be in [0, num_workers]")
        if self.faults is not None:
            self.faults.validate(self.num_workers)
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.local_step_lr <= 0:
            raise ValueError("local_step_lr must be positive")
        if self.topology == "torus":
            if self.torus_shape is None:
                raise ValueError("torus topology needs torus_shape")
            rows, cols = self.torus_shape
            if rows * cols != self.num_workers:
                raise ValueError("torus_shape must multiply to num_workers")


def make_cluster(config: TrainConfig, cost_model: CostModel | None = None) -> Cluster:
    """Build the cluster matching a :class:`TrainConfig`.

    The graph comes from the topology registry; every family's ``build``
    takes the worker count plus family-specific keywords (only the torus
    needs one here).  On the star, rank 0 doubles as the parameter server
    (it aggregates its own gradient locally), so cluster size equals worker
    count and the strategies' per-rank bookkeeping is topology independent.
    """
    kwargs = {}
    if config.topology == "torus":
        rows, cols = config.torus_shape
        kwargs = {"rows": rows, "cols": cols}
    topology = get_topology(config.topology).build(config.num_workers, **kwargs)
    cluster = Cluster(topology, cost_model=cost_model)
    if config.faults is not None:
        cluster.attach_faults(FaultInjector(config.faults))
    return cluster


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the OS (a no-op off glibc).

    glibc serves a block below its mmap threshold from the heap, and it
    raises that threshold to the size of each mmap'd block it frees, up to
    32 MB.  Once one ``(M, D)`` array is freed, every smaller array lives on
    the heap, and freed heap pages stay resident until the free top exceeds
    twice the threshold.  How much of an earlier run stays resident then
    depends on where its blocks happened to land, so the peak resident size
    of back-to-back runs jumps between modes several MB apart.  A trainer
    trims before it builds anything, so it carries none of that.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


class DistributedTrainer:
    """Runs one (model, dataset, strategy) combination to completion."""

    def __init__(
        self,
        model_factory: Callable[[], Module],
        train_set: ArrayDataset,
        test_set: ArrayDataset,
        strategy: SyncStrategy,
        config: TrainConfig,
        cost_model: CostModel | None = None,
        callbacks: Sequence[TrainerCallback] | None = None,
        observability: Observability | None = None,
    ) -> None:
        _release_free_heap()
        self.model = model_factory()
        self.train_set = train_set
        self.test_set = test_set
        self.strategy = strategy
        self.config = config
        self.callbacks = CallbackList(callbacks)
        if config.faults is not None and config.faults.crashes():
            from repro.train.strategies import MarsitStrategy

            if not isinstance(strategy, MarsitStrategy):
                raise ValueError(
                    "WorkerCrash events need a recovery path; only the "
                    "Marsit strategy implements one"
                )
        self.cluster = make_cluster(config, cost_model=cost_model)
        if observability is not None:
            self.cluster.attach_observability(observability)
        if config.sharding == "dirichlet":
            shards = shard_dirichlet(
                train_set,
                config.num_workers,
                alpha=config.dirichlet_alpha,
                seed=config.seed,
                min_per_worker=config.batch_size,
            )
        else:
            shards = shard_iid(train_set, config.num_workers, seed=config.seed)
        self.iterators = [
            WorkerBatchIterator(shard, config.batch_size, seed=config.seed + 101 * w)
            for w, shard in enumerate(shards)
        ]
        self.loss_fn = CrossEntropyLoss()
        self._flops_per_example = float(
            getattr(self.model, "flops_per_example", 6.0 * self.model.num_parameters())
        )
        dimension = self.model.num_parameters()
        self._grads = np.empty((config.num_workers, dimension))
        self._step_grad = np.empty(dimension) if config.local_steps > 1 else None
        # Backward accumulates straight into the gradient rows: every
        # parameter's ``grad`` is rebound to its slice of the row being
        # computed (so after ``step`` it shows what the strategy wrote
        # there).  A parameter registered twice (tied weights) owns two
        # slices, so such a model is flattened after backward instead.
        self._params = self.model.parameters()
        self._row_views = self._step_views = None
        if len({id(param) for param in self._params}) == len(self._params):
            self._row_views = [self._slices(row) for row in self._grads]
            if self._step_grad is not None:
                self._step_views = self._slices(self._step_grad)

    def _slices(self, vector: np.ndarray) -> list[np.ndarray]:
        """Each parameter's gradient-shaped view of ``vector``, in layout order."""
        views, offset = [], 0
        for param in self._params:
            views.append(vector[offset : offset + param.size].reshape(param.shape))
            offset += param.size
        return views

    def _one_gradient(
        self,
        iterator: WorkerBatchIterator,
        out: np.ndarray,
        views: list[np.ndarray] | None,
    ) -> float:
        """One batch's forward/backward; the gradient lands in ``out``, whose
        parameter slices are ``views`` (``None``: flatten after backward)."""
        x, y = iterator.next_batch()
        if views is None:
            self.model.zero_grad()
        else:
            for param, view in zip(self._params, views):
                param.grad = view
            out.fill(0.0)
        logits = self.model(x)
        loss = self.loss_fn(logits, y)
        self.model.backward(self.loss_fn.backward())
        if views is None:
            self.model.flatten_grads(out=out)
        return loss

    def _worker_gradients(self) -> tuple[np.ndarray, float]:
        """Per-worker (accumulated) gradients, plus the mean train loss.

        Worker ``m``'s gradient is row ``m`` of one ``(M, D)`` matrix that
        every round overwrites and every strategy writes its messages over,
        so strategies must not keep the rows past their ``step``.  With
        ``local_steps > 1`` each worker walks a short local-SGD trajectory
        from the shared parameters and reports the mean gradient along it;
        parameters are restored between workers so every walk starts from
        consensus.
        """
        grads = self._grads
        losses = []
        local_steps = self.config.local_steps
        faults = self.cluster.faults
        dead = faults.dead_workers if faults is not None else frozenset()
        shared = self.model.flatten_params() if local_steps > 1 else None
        for worker, iterator in enumerate(self.iterators):
            row = grads[worker]
            if worker in dead:
                # Crashed workers contribute nothing: a zero row keeps the
                # matrix M rows tall (the synchronizer indexes by original
                # rank) without touching the loss mean.
                row.fill(0.0)
                continue
            views = None if self._row_views is None else self._row_views[worker]
            if local_steps == 1:
                loss = self._one_gradient(iterator, row, views)
            else:
                self.model.set_flat_params(shared)
                loss = 0.0
                for step in range(local_steps):
                    step_grad = row if step == 0 else self._step_grad
                    if step:
                        views = self._step_views
                    loss += (
                        self._one_gradient(iterator, step_grad, views) / local_steps
                    )
                    self.model.add_flat_update(
                        self.config.local_step_lr * step_grad, scale=-1.0
                    )
                    if step:
                        row += step_grad
                # The sum in step order, then one division: np.mean's floats.
                row /= local_steps
            losses.append(loss)
            if self.config.clip_grad_norm is not None:
                norm = float(np.linalg.norm(row))
                if norm > self.config.clip_grad_norm:
                    row *= self.config.clip_grad_norm / norm
            if worker < self.config.byzantine_workers:
                row *= -10.0
        if shared is not None:
            self.model.set_flat_params(shared)
        # Workers compute in parallel: charge one worker's forward+backward.
        self.cluster.charge(
            Phase.COMPUTATION,
            self.cluster.cost_model.compute_time(
                self._flops_per_example * self.config.batch_size * local_steps
            ),
        )
        return grads, float(np.mean(losses))

    def run(self) -> TrainResult:
        """Train for ``config.rounds`` rounds (early stop on divergence)."""
        result = TrainResult(strategy_name=self.strategy.name)
        bits_seen: list[float] = []
        train_loss = float("nan")
        faults = self.cluster.faults
        for round_idx in range(self.config.rounds):
            if faults is not None:
                # Activate this round's faults *before* gradients so crashed
                # workers stop computing from the crash round onward.
                faults.begin_round(round_idx)
            self.callbacks.on_round_start(
                round_idx, cluster=self.cluster, trainer=self
            )
            grads, train_loss = self._worker_gradients()
            if not np.isfinite(train_loss) or train_loss > self.config.divergence_loss:
                result.diverged = True
                result.rounds_run = round_idx
                break
            # The strategy consumes the matrix: its rows become the messages.
            step = self.strategy.step(self.cluster, grads, round_idx)
            self.callbacks.on_sync_done(
                round_idx, step, cluster=self.cluster, trainer=self
            )
            bits_seen.append(step.bits_per_element)
            if step.plan_digest is not None:
                result.plan_digest = step.plan_digest
                result.num_plan_steps = step.num_plan_steps
            update = step.updates[0]
            if not np.isfinite(update).all():
                result.diverged = True
                result.rounds_run = round_idx
                break
            self.model.add_flat_update(update, scale=-1.0)
            result.rounds_run = round_idx + 1
            last_round = round_idx == self.config.rounds - 1
            if round_idx % self.config.eval_every == 0 or last_round:
                accuracy, test_loss = evaluate(
                    self.model,
                    self.test_set,
                    max_batches=self.config.eval_max_batches,
                )
                record = RoundRecord(
                    round_idx=round_idx,
                    sim_time_s=self.cluster.timeline.total,
                    comm_bytes=self.cluster.total_bytes,
                    train_loss=train_loss,
                    test_accuracy=accuracy,
                    test_loss=test_loss,
                    bits_per_element=step.bits_per_element,
                )
                result.history.append(record)
                self.callbacks.on_eval(
                    round_idx, record, cluster=self.cluster, trainer=self
                )
        result.final_accuracy = (
            result.history[-1].test_accuracy if result.history else 0.0
        )
        result.total_sim_time_s = self.cluster.timeline.total
        result.total_comm_bytes = self.cluster.total_bytes
        result.time_breakdown_s = self.cluster.timeline.breakdown()
        result.avg_bits_per_element = (
            float(np.mean(bits_seen)) if bits_seen else 32.0
        )
        if faults is not None:
            result.fault_summary = faults.summary()
        return result
