"""Marsit synchronization (paper Algorithm 1).

Each round every worker holds an update ``g_t^(m)`` (the local-stepsize-scaled
gradient, possibly momentum/Adam-transformed) and a compensation vector
``c_t^(m)``.  The synchronizer:

1. forms the compensated update ``g <- g_t^(m) + c_t^(m)`` (line 1) by
   adding the updates into the persistent ``(M, D)`` compensation buffer;
2. on a **one-bit round** (``t mod K != 0``): compiles the cluster topology
   to a :class:`~repro.sched.plan.SyncPlan` (once, cached) and hands it to
   the configured executor, which runs the multi-hop reduce where every hop
   applies the ``⊙`` merge of :mod:`repro.core.sign_ops` to sign-bit
   segments (lines 4-8), gathers the consensus bit vector, and returns
   ``g_t = eta_s * signs`` (line 9); compensation becomes ``c <- g - g_t``
   (line 10), subtracted from the same buffer;
3. on a **full-precision round** (``t mod K == 0``): all-reduces ``g`` in
   FP32 and resets ``c <- 0`` (lines 12-13).

Both compensation updates run in place, so a round allocates no ``(M, D)``
matrix of its own; the one-bit global update is one read-only vector shared
by every worker's report entry.

The topology knowledge lives in the per-topology compilers registered in
:mod:`repro.allreduce`; the hop semantics, RNG streams, metrics, and the
Section 4.1.1 overlap charges live in the two :mod:`repro.sched` executors.
This module only owns the algorithm state (compensation, RNGs, LR schedule)
and the plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.comm.cluster import Cluster
from repro.sched import executor_names, get_executor
from repro.sched.plan import CompileContext, SyncPlan, full_precision_plan

__all__ = ["MarsitConfig", "MarsitState", "MarsitSynchronizer", "SyncReport"]


@dataclass
class MarsitConfig:
    """Hyper-parameters of Algorithm 1.

    Attributes:
        global_lr: ``eta_s``, the stepsize applied to the consensus signs.
        full_precision_every: ``K``; rounds with ``t % K == 0`` synchronize
            in FP32 and reset compensation.  ``None`` means never (the paper's
            plain "Marsit", i.e. ``K = infinity``).
        seed: root seed for the per-worker transient-vector generators.
        global_lr_schedule: optional ``round_idx -> multiplier`` applied on
            top of ``global_lr`` (the experiments decay the LR at every
            full-precision synchronization).
        use_compensation: ablation hook — ``False`` zeroes the compensation
            vector every round (Section 4.1.3's mechanism disabled), so the
            magnitude residual of each one-bit step is discarded instead of
            carried forward.
        segment_elems: when set and the topology is a ring, the one-bit sync
            runs as a *segmented ring* (paper ref [25]): the vector is cut
            into fixed-size pipeline segments, each synchronized by its own
            ring pass — Section 5's "easily extended to segmented-ring
            all-reduce".
        engine: which :mod:`repro.sched` executor interprets the plan.
            ``"batched"`` (default) runs the lane-stacked lockstep path —
            every synchronous step's merges and transfers execute as one
            numpy op over all lanes; ``"scalar"`` keeps the per-message
            reference path.  Both consume identical per-rank RNG streams, so
            results are bit-for-bit equal.
        verify_consensus: assert after every one-bit round that all workers
            hold identical bits.  The check costs O(M * D) per round, so
            benchmarks turn it off.
    """

    global_lr: float
    full_precision_every: int | None = None
    seed: int = 0
    global_lr_schedule: Callable[[int], float] | None = None
    use_compensation: bool = True
    segment_elems: int | None = None
    engine: str = "batched"
    verify_consensus: bool = True

    def __post_init__(self) -> None:
        if self.global_lr <= 0:
            raise ValueError("global_lr must be positive")
        if self.full_precision_every is not None and self.full_precision_every < 1:
            raise ValueError("full_precision_every must be >= 1 or None")
        if self.segment_elems is not None and self.segment_elems < 1:
            raise ValueError("segment_elems must be >= 1 or None")
        if self.engine not in executor_names():
            raise ValueError(
                f"engine must be one of {', '.join(executor_names())}, "
                f"got {self.engine!r}"
            )

    def validate_topology(self, name: str) -> None:
        """Check ``name`` names a registered topology with a one-bit compiler."""
        from repro.allreduce import get_topology, one_bit_topology_names

        entry = get_topology(name)
        if entry.compile_one_bit is None:
            raise ValueError(
                "Marsit one-bit sync requires a topology with a SyncPlan "
                f"compiler ({', '.join(one_bit_topology_names())}), "
                f"got {name!r}"
            )

    def is_full_precision_round(self, round_idx: int) -> bool:
        if self.full_precision_every is None:
            return False
        return round_idx % self.full_precision_every == 0

    def effective_global_lr(self, round_idx: int) -> float:
        if self.global_lr_schedule is None:
            return self.global_lr
        return self.global_lr * self.global_lr_schedule(round_idx)


@dataclass
class MarsitState:
    """Per-worker compensation vectors ``c_t^(m)``, stacked ``(M, D)``.

    One contiguous matrix that lives as long as the synchronizer: every round
    adds the updates into it (line 1) and subtracts the global update from it
    (line 10) in place, so the array object never changes and its contents
    change every round.  Take ``compensation.copy()`` to keep a snapshot.
    Row ``compensation[m]`` is worker ``m``'s vector, so indexing callers
    (checkpointing, tests) are unchanged; a list of equal-length vectors is
    accepted and stacked.
    """

    compensation: np.ndarray

    def __post_init__(self) -> None:
        self.compensation = np.asarray(self.compensation, dtype=np.float64)
        if self.compensation.ndim != 2:
            raise ValueError(
                "compensation must be a (num_workers, dimension) matrix"
            )

    @classmethod
    def zeros(cls, num_workers: int, dimension: int) -> "MarsitState":
        return cls(compensation=np.zeros((num_workers, dimension)))


@dataclass
class SyncReport:
    """What one :meth:`MarsitSynchronizer.synchronize` call did.

    ``global_updates[m]`` is the vector worker ``m`` subtracts from its
    model.  On one-bit rounds every entry is the *same* read-only array
    (``writeable=False``): consensus makes per-worker copies redundant, so
    copy an entry before modifying it.
    """

    round_idx: int
    full_precision: bool
    bits_per_element: float
    global_updates: list[np.ndarray] = field(repr=False)
    plan_digest: str | None = None
    num_plan_steps: int = 0
    #: True when this round ran crash recovery: the topology was degraded to
    #: the survivor set and the round was forced to full precision to reset
    #: compensation (the paper's K-sync mechanism as a recovery anchor).
    recovered: bool = False


class MarsitSynchronizer:
    """Drives Algorithm 1 over any registered topology with a plan compiler.

    The synchronizer owns the compensation state and one RNG per worker (the
    transient vector is drawn by the *receiving* worker, so randomness is
    local — no shared seed is needed for consensus because the merged bits
    themselves travel the ring).  Topologies are compiled to
    :class:`~repro.sched.plan.SyncPlan` once per (kind, topology) and cached.
    """

    def __init__(
        self,
        config: MarsitConfig,
        num_workers: int,
        dimension: int,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.config = config
        self.num_workers = num_workers
        self.dimension = dimension
        self.state = MarsitState.zeros(num_workers, dimension)
        seeds = np.random.SeedSequence(config.seed).spawn(num_workers)
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self._plans: dict[tuple, tuple[SyncPlan, str]] = {}
        # Crash recovery state: the original ranks still participating, and
        # whether the next round must resync in full precision.
        self._active: list[int] = list(range(num_workers))
        self._inactive: list[int] = []
        self._forced_fp = False

    @property
    def active_workers(self) -> list[int]:
        """Original ranks of the workers still participating."""
        return list(self._active)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def synchronize(
        self,
        cluster: Cluster,
        updates: np.ndarray | Sequence[np.ndarray],
        round_idx: int,
    ) -> SyncReport:
        """Run Algorithm 1 for one round.

        Args:
            cluster: cluster with ``num_workers`` workers over a registered
                topology.
            updates: per-worker ``g_t^(m)`` (local LR already applied),
                either one ``(M, D)`` array or a sequence of ``M`` vectors.
                The input is only read, never written.
            round_idx: the synchronization index ``t``.

        Returns:
            A :class:`SyncReport` whose ``global_updates[m]`` is the vector
            worker ``m`` subtracts from its model.  On one-bit rounds all
            entries are one shared read-only array (consensus); on
            full-precision rounds they are identical up to FP32 wire
            rounding.

        ``self.state.compensation`` is updated in place.  If the sync itself
        raises (a terminal fault, after which the caller voids the round with
        :meth:`~repro.comm.cluster.Cluster.abort_step`), this round's updates
        are subtracted back out, so the buffer returns to ``c`` up to float64
        rounding.
        """
        faults = cluster.faults
        recovered = False
        if faults is not None:
            faults.begin_round(round_idx)
            crashed = faults.take_new_crashes()
            if crashed:
                self._recover(cluster, crashed, faults)
                recovered = True
        if cluster.num_workers != len(self._active):
            raise ValueError("cluster size does not match synchronizer")
        # Line 1 of Algorithm 1, in place: the compensation buffer becomes
        # every worker's compensated update.  After a crash only the
        # survivors' rows go on the wire; dead rows stay parked (their
        # updates are ignored and their compensation pinned to zero).
        compensated = self._add_updates(updates)
        active = self._active
        degraded = len(active) != self.num_workers
        vectors = compensated[active] if degraded else compensated

        obs = cluster.obs
        metrics = obs.metrics
        full_precision = (
            self.config.is_full_precision_round(round_idx) or self._forced_fp
        )
        self._forced_fp = False
        sign_agreement = None
        with obs.tracer.span(
            "round",
            cat="marsit",
            round=round_idx,
            engine=self.config.engine,
            full_precision=full_precision,
        ):
            sync = (
                self._full_precision_sync if full_precision else self._one_bit_sync
            )
            try:
                result, plan_digest, num_plan_steps = sync(cluster, vectors)
            except BaseException:
                # A voided round must not leave its updates in the buffer.
                for row, update in zip(compensated, updates):
                    row -= np.asarray(update, dtype=np.float64)
                raise
            if full_precision:
                outputs = result
                # No topology's mean all-reduce returns views of its input
                # rows, so zeroing the buffer leaves ``outputs`` intact.
                compensated.fill(0.0)
                if degraded:
                    # Dead ranks get the consensus update so trainer-side
                    # indexing (``updates[0]``) stays valid either way.
                    global_updates = [outputs[0].copy()] * self.num_workers
                    for pos, rank in enumerate(active):
                        global_updates[rank] = outputs[pos]
                else:
                    global_updates = outputs
                report = SyncReport(
                    round_idx=round_idx,
                    full_precision=True,
                    bits_per_element=32.0,
                    global_updates=global_updates,
                    plan_digest=plan_digest,
                    num_plan_steps=num_plan_steps,
                    recovered=recovered,
                )
            else:
                consensus_signs = result
                if metrics is not None:
                    # Live Figure-1b statistic: how often the one-bit
                    # consensus matches the sign of the exact full-precision
                    # mean update.  Read before line 10 rewrites ``vectors``.
                    mean_sign = np.where(vectors.mean(axis=0) >= 0, 1.0, -1.0)
                    sign_agreement = float(np.mean(consensus_signs == mean_sign))
                global_update = consensus_signs
                global_update *= self.config.effective_global_lr(round_idx)
                if self.config.use_compensation:
                    # Line 10 in place: c <- g - g_t.
                    compensated -= global_update
                    if degraded:
                        compensated[self._inactive] = 0.0
                else:
                    compensated.fill(0.0)
                global_update.flags.writeable = False
                report = SyncReport(
                    round_idx=round_idx,
                    full_precision=False,
                    bits_per_element=1.0,
                    global_updates=[global_update] * self.num_workers,
                    plan_digest=plan_digest,
                    num_plan_steps=num_plan_steps,
                    recovered=recovered,
                )
        if metrics is not None:
            metrics.gauge("marsit.bits_per_element").set(report.bits_per_element)
            live = compensated[active] if degraded else compensated
            metrics.gauge("marsit.comp_norm").set(
                float(np.mean(np.linalg.norm(live, axis=1)))
            )
            if sign_agreement is not None:
                metrics.gauge("marsit.sign_agreement").set(sign_agreement)
        return report

    def _add_updates(
        self, updates: np.ndarray | Sequence[np.ndarray]
    ) -> np.ndarray:
        """Validate ``updates``, then add them into the compensation buffer.

        Every shape is checked before the buffer is touched, so a rejected
        call leaves the state as it was.  Both input forms are added row by
        row (an ``(M, D)`` array iterates as its rows), so neither allocates
        an ``(M, D)`` temporary or writes to the input.
        """
        if len(updates) != self.num_workers:
            raise ValueError("one update vector per worker required")
        for shape in [np.shape(update) for update in updates]:
            if shape != (self.dimension,):
                raise ValueError(
                    f"update dimension {shape} != ({self.dimension},)"
                )
        compensation = self.state.compensation
        for row, update in zip(compensation, updates):
            row += np.asarray(update, dtype=np.float64)
        return compensation

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _recover(self, cluster: Cluster, crashed, faults) -> None:
        """Degrade to the survivor set and force an early FP resync.

        Quorum check -> rebuild the topology over the survivors (same family
        when it can shrink, ring otherwise) -> reconfigure the cluster in
        place -> re-rank the injector -> force this round to full precision
        so every survivor's compensation is reset (the paper's K-sync
        mechanism doubling as the recovery anchor).
        """
        from repro.faults.recovery import check_quorum, degraded_topology

        crashed_set = set(crashed)
        survivors = [rank for rank in self._active if rank not in crashed_set]
        check_quorum(faults.plan, self.num_workers, survivors)
        topology = degraded_topology(cluster.topology, len(survivors))
        cluster.reconfigure(topology, drop_pending=True)
        faults.set_active(survivors)
        self._active = survivors
        self._inactive = [
            rank for rank in range(self.num_workers) if rank not in survivors
        ]
        self._forced_fp = True
        faults.note_recovery(tuple(crashed), survivors)

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def _plan_for(self, cluster: Cluster, kind: str) -> tuple[SyncPlan, str]:
        """Compile (or fetch) the plan for ``cluster``'s topology.

        The worker count is the *cluster*'s, not the synchronizer's — after
        crash recovery the degraded topology is smaller, and its plans cache
        under a distinct key.
        """
        topology = cluster.topology
        meta_items = tuple(sorted(topology.meta.items()))
        key = (
            kind,
            topology.name,
            meta_items,
            cluster.num_workers,
            self.config.segment_elems,
        )
        cached = self._plans.get(key)
        if cached is not None:
            return cached
        if kind == "full_precision":
            plan = full_precision_plan(
                topology.name, cluster.num_workers, self.dimension
            )
        else:
            from repro.allreduce import get_topology

            self.config.validate_topology(topology.name)
            compiler = get_topology(topology.name).compile_one_bit
            plan = compiler(
                CompileContext(
                    num_workers=cluster.num_workers,
                    dimension=self.dimension,
                    meta=dict(topology.meta),
                    segment_elems=self.config.segment_elems,
                )
            )
        plan.validate()
        cached = (plan, plan.digest())
        self._plans[key] = cached
        return cached

    # ------------------------------------------------------------------
    # one-bit path
    # ------------------------------------------------------------------
    def _one_bit_sync(
        self, cluster: Cluster, vectors: np.ndarray
    ) -> tuple[np.ndarray, str | None, int]:
        """Plan-driven sign aggregation; returns the consensus ``{-1,+1}``.

        ``vectors`` is the stacked compensated-update matrix of the *active*
        workers (one row per cluster rank); the scalar engine indexes its
        rows, the batched engine consumes it whole.  Survivors keep their
        original RNG streams across a recovery.
        """
        if vectors.shape[0] == 1:
            bits = (vectors[0] >= 0).astype(np.uint8)
            return bits.astype(np.float64) * 2.0 - 1.0, None, 0
        plan, digest = self._plan_for(cluster, "one_bit")
        executor = get_executor(self.config.engine)
        if len(self._active) == self.num_workers:
            rngs = self.rngs
        else:
            rngs = [self.rngs[rank] for rank in self._active]
        final = executor.run_one_bit(
            plan,
            cluster,
            vectors,
            rngs,
            verify_consensus=self.config.verify_consensus,
        )
        # The single unpack of the whole pipeline: words -> {-1, +1} floats.
        return final.to_signs(), digest, plan.num_steps

    # ------------------------------------------------------------------
    # full-precision path
    # ------------------------------------------------------------------
    def _full_precision_sync(
        self, cluster: Cluster, vectors: np.ndarray
    ) -> tuple[list[np.ndarray], str | None, int]:
        """Lines 12-13: FP32 all-reduce mean of the compensated updates."""
        if vectors.shape[0] == 1:
            return [vectors[0].copy()], None, 0
        plan, digest = self._plan_for(cluster, "full_precision")
        executor = get_executor(self.config.engine)
        outputs = executor.run_full_precision(plan, cluster, vectors)
        return outputs, digest, plan.num_steps
