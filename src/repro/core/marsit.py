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
   (line 10);
3. on a **full-precision round** (``t mod K == 0``): all-reduces ``g`` in
   FP32 over the same topology's schedule, compiled as a sum plan
   (:func:`repro.allreduce.codec.sum_plan`), and resets ``c <- 0`` (lines
   12-13).

A one-bit round reads the buffer once.  Line 10 does not sweep it: ``g_t``
stays *pending* and is folded into the next round's line 1, which runs as
one cache-blocked pass.  Each block first subtracts the pending ``g_t``,
then adds this round's updates, then writes its ``>= 0`` sign words
straight into the packed grids the plan's ``Pack`` steps declare, which the
executor consumes.  Each element still computes ``(c + g) - g_t`` and then
``+ g'``, in that order, so the buffer is bit-identical to subtracting at
once.  Reading ``state.compensation`` applies a pending ``g_t`` first, so
every reader sees ``c``.

The compensation updates run in place, so a round allocates no ``(M, D)``
matrix of its own; the one-bit global update is one read-only vector shared
by every worker's report entry (and kept as the pending ``g_t``).

The transient draw overlaps that pass.  ``B`` depends only on the plan and
the workers' generators (paper Section 1: ``r`` is "computable in parallel
with reception"), so the round's whole table of ``B`` words
(:func:`~repro.sched.executor.draw_transients`) is drawn on the calling
thread while one helper thread runs pass blocks; then both run the blocks
that are left.  numpy releases the GIL in both, so on a host with two or
more CPUs the draw costs about nothing beyond the memory-bound pass.  The
helper is used only when the pass covers at least ``_HELPER_MIN_BYTES`` of
``c`` and the process may run on two CPUs; it runs pass blocks and nothing
else (no traced or wrapped library function runs off the calling thread),
and it is always joined before the pass returns or raises.  A round that
is voided afterwards (a terminal loss) has consumed all of its draws, as a
worker that draws before reception would.

The topology knowledge lives in the per-topology compilers registered in
:mod:`repro.allreduce`; the hop semantics, metrics, and the Section 4.1.1
overlap charges live in the two :mod:`repro.sched` executors, which consume
the round's transient table and own no generator.  This module owns the
algorithm state (compensation, RNGs, LR schedule), the compensation pass
with the draw it overlaps, and the plan cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.comm.cluster import Cluster
from repro.sched import executor_names, get_executor
from repro.sched.executor import draw_transients
from repro.sched.plan import CompileContext, Pack, SyncPlan

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from repro.allreduce.ring import PackedLaneGrid
    from repro.obs.metrics import MetricsRegistry

__all__ = ["MarsitConfig", "MarsitState", "MarsitSynchronizer", "SyncReport"]

#: Bytes of ``c`` one block of the compensation pass covers.  With the same
#: slice of the updates that is 2 MB, so a block's subtract, add and sign
#: pack run out of one core's L2 cache.
_BLOCK_BYTES = 1 << 20
_WORD_BITS = 64
#: Bytes of ``c`` a pass must cover before the helper thread takes blocks.
#: At 10.9 MB (M = 16, D = 85,002) the handoff and the GIL traffic of the
#: draw's small calls ate the overlap (7.4 vs 7.1 ms per round), and the
#: helper raised peak resident memory; at 128 MB (D = 1M) it saved 12.5 ms.
_HELPER_MIN_BYTES = 32 << 20

#: The one helper thread of the compensation pass, created on first use.
_HELPER: ThreadPoolExecutor | None = None


def _helper() -> ThreadPoolExecutor:
    global _HELPER
    if _HELPER is None:
        from concurrent.futures import ThreadPoolExecutor

        _HELPER = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="marsit-pass"
        )
    return _HELPER


def _forget_helper() -> None:
    # A forked child inherits the pool object but not its thread.
    global _HELPER
    _HELPER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


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
            reference path.  Both consume one transient table drawn by the
            synchronizer, so results are bit-for-bit equal.
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


class MarsitState:
    """Per-worker compensation vectors ``c_t^(m)``, stacked ``(M, D)``.

    One contiguous matrix that lives as long as the synchronizer.  Every
    round adds the updates into it in place (line 1).  Line 10's
    ``c -= g_t`` is kept *pending* and folded into the next round's line 1
    (see the module docstring).  Reading :attr:`compensation` applies a
    pending ``g_t`` in place first, so readers see exactly ``c`` and the
    array object never changes; its contents change every round, so take
    ``compensation.copy()`` to keep a snapshot.  Assigning
    :attr:`compensation` replaces the buffer and drops any pending ``g_t``.
    Row ``compensation[m]`` is worker ``m``'s vector, so indexing callers
    (checkpointing, tests) are unchanged; a list of equal-length vectors is
    accepted and stacked.
    """

    def __init__(self, compensation: np.ndarray | Sequence[np.ndarray]) -> None:
        self.compensation = compensation

    @property
    def compensation(self) -> np.ndarray:
        self._apply_pending()
        return self._buffer

    @compensation.setter
    def compensation(self, value: np.ndarray | Sequence[np.ndarray]) -> None:
        buffer = np.asarray(value, dtype=np.float64)
        if buffer.ndim != 2:
            raise ValueError(
                "compensation must be a (num_workers, dimension) matrix"
            )
        self._buffer = buffer
        self._pending = None

    @classmethod
    def zeros(cls, num_workers: int, dimension: int) -> "MarsitState":
        return cls(compensation=np.zeros((num_workers, dimension)))

    def defer(self, global_update: np.ndarray, rows: list[int] | None) -> None:
        """Line 10, deferred: ``c[rows] -= global_update`` on the next read.

        ``rows=None`` means every row.  ``global_update`` is kept, not
        copied, so it must not change afterwards (make it read-only).
        """
        self._apply_pending()
        self._pending = (global_update, rows)

    def reset(self) -> None:
        """``c <- 0`` in place, dropping any pending ``g_t``."""
        self._pending = None
        self._buffer.fill(0.0)

    def take_pending(
        self, rows: list[int] | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The raw buffer and the pending ``g_t`` a pass over ``rows`` owes.

        The caller must subtract the returned ``g_t`` from those rows before
        anything reads them.  A ``g_t`` pending on other rows (the active
        set shrank) is applied here instead, and ``None`` returned.
        """
        if self._pending is not None and self._pending[1] != rows:
            self._apply_pending()
        pending, self._pending = self._pending, None
        return self._buffer, None if pending is None else pending[0]

    def _apply_pending(self) -> None:
        if self._pending is None:
            return
        (update, rows), self._pending = self._pending, None
        if rows is None:
            self._buffer -= update
        else:
            self._buffer[rows] -= update


@dataclass
class SyncReport:
    """What one :meth:`MarsitSynchronizer.synchronize` call did.

    ``global_updates[m]`` is the vector worker ``m`` subtracts from its
    model.  Entries are read-only (``writeable=False``) and shared: on
    one-bit rounds every entry is the *same* array, and on full-precision
    rounds every rank that holds the same all-reduce output (all of them,
    unless faults split it) shares one array.  Consensus makes per-worker
    copies redundant, so copy an entry before modifying it.
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
        # (id(plan), rows, block width) -> [plan, grids, blocks, table]:
        # the compensation pass's layout, the grids it packs into and the
        # transient table drawn beside it, reused every round (each round
        # rewrites every word the plan reads).  An entry holds its plan, so
        # the id cannot be reused while it lives.
        self._passes: dict[tuple, tuple] = {}
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
            worker ``m`` subtracts from its model, read-only.  On one-bit
            rounds all entries are one shared array (consensus); on
            full-precision rounds ranks share the mean all-reduce's one
            array per distinct output.

        ``self.state.compensation`` is updated in place; after a one-bit
        round it holds ``g_t`` pending (see :class:`MarsitState`), and
        reading it applies that.  If the transient draw or the sync itself
        raises (a terminal fault, after which the caller voids the round
        with :meth:`~repro.comm.cluster.Cluster.abort_step`), this round's
        updates are subtracted back out, so the buffer returns to ``c`` up
        to float64 rounding.
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
        self._check_updates(updates)
        # After a crash only the survivors' rows go on the wire; dead rows
        # stay parked (their updates are ignored and their compensation
        # pinned to zero).
        active = self._active
        degraded = len(active) != self.num_workers
        rows = active if degraded else None

        obs = cluster.obs
        metrics = obs.metrics
        full_precision = (
            self.config.is_full_precision_round(round_idx) or self._forced_fp
        )
        self._forced_fp = False
        sign_agreement = None
        state = self.state
        with obs.tracer.span(
            "round",
            cat="marsit",
            round=round_idx,
            engine=self.config.engine,
            full_precision=full_precision,
        ):
            compiled = plan = rngs = None
            if not full_precision and len(active) > 1:
                compiled = self._plan_for(cluster, "one_bit")
                plan = compiled[0]
                rngs = self.rngs
                if degraded:
                    # Survivors keep their original streams.
                    rngs = [self.rngs[rank] for rank in active]
            # Line 1 of Algorithm 1, in place, fused with the pending line
            # 10 and the plan's Pack steps: the buffer becomes every
            # worker's compensated update.  The round's transient words are
            # drawn meanwhile.
            packed, transients = self._compensate(
                updates, rows, plan, rngs, metrics
            )
            compensated = state.compensation
            vectors = None
            if full_precision or metrics is not None:
                vectors = compensated[active] if degraded else compensated
            try:
                if full_precision:
                    result, plan_digest, num_plan_steps = (
                        self._full_precision_sync(cluster, vectors)
                    )
                else:
                    lr = self.config.effective_global_lr(round_idx)
                    result, plan_digest, num_plan_steps = self._one_bit_sync(
                        cluster, compiled, packed, transients, lr
                    )
            except BaseException:
                # A voided round must not leave its updates in the buffer.
                self._void(updates, active)
                raise
            if full_precision:
                outputs = result
                # No topology's mean all-reduce returns views of its input
                # rows, so zeroing the buffer leaves ``outputs`` intact.
                state.reset()
                if degraded:
                    # Dead ranks get the consensus update so trainer-side
                    # indexing (``updates[0]``) stays valid either way.
                    global_updates = [outputs[0]] * self.num_workers
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
                global_update = result
                if metrics is not None:
                    # Live Figure-1b statistic: how often the one-bit
                    # consensus matches the sign of the exact full-precision
                    # mean update.  Read before line 10 applies to ``c``.
                    positive = np.signbit(global_update) == np.signbit(lr)
                    sign_agreement = float(
                        np.mean(positive == (vectors.mean(axis=0) >= 0))
                    )
                global_update.flags.writeable = False
                if self.config.use_compensation:
                    # Line 10, c <- g - g_t: pending until the next pass.
                    state.defer(global_update, rows)
                    if degraded:
                        compensated[self._inactive] = 0.0
                else:
                    state.reset()
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
            # Reading the compensation applies the pending g_t.  Each row's
            # norm is the pairwise sum ``np.linalg.norm(c, axis=1)`` runs
            # per row, one row's square at a time.
            compensation = state.compensation
            norms = []
            for rank in active:
                row = compensation[rank]
                norms.append(np.sqrt(np.add.reduce(row * row)))
            metrics.gauge("marsit.comp_norm").set(float(np.mean(norms)))
            if sign_agreement is not None:
                metrics.gauge("marsit.sign_agreement").set(sign_agreement)
        return report

    def _check_updates(self, updates: np.ndarray | Sequence[np.ndarray]) -> None:
        """Check ``updates`` before the buffer or the pending ``g_t`` is
        touched, so a rejected call leaves the state as it was."""
        if len(updates) != self.num_workers:
            raise ValueError("one update vector per worker required")
        for shape in [np.shape(update) for update in updates]:
            if shape != (self.dimension,):
                raise ValueError(
                    f"update dimension {shape} != ({self.dimension},)"
                )

    def _compensate(
        self,
        updates: np.ndarray | Sequence[np.ndarray],
        rows: list[int] | None,
        plan: SyncPlan | None,
        rngs: Sequence[np.random.Generator] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> tuple[dict[str, "PackedLaneGrid"], list[np.ndarray] | None]:
        """Line 1, the pending line 10 and the ``Pack`` steps in one pass,
        overlapped with the round's transient draw.

        The pass walks the buffer in column blocks of about
        ``_BLOCK_BYTES``.  Each block of ``rows`` (every row when ``None``)
        subtracts the pending ``g_t``, adds ``updates`` and, when ``plan``
        is given, packs its ``>= 0`` signs into the grid segment its
        ``Pack`` step declares.  One ``(M, D)`` float64 array adds a 2-D
        slice per block; other inputs (a sequence of vectors, or the
        survivors' rows after a crash) are folded and added row by row
        first, and the blocks only pack.  Neither allocates an ``(M, D)``
        temporary or writes to the input.

        With ``rngs`` (one generator per plan rank), the plan's transient
        table is drawn on this thread while the helper thread takes blocks
        from the same iterator; this thread then joins the block loop.  The
        blocks write disjoint columns and whole words of the grids, so the
        split changes no result.  The pass runs to its end even when the
        draw raises, and the helper is joined before this returns or raises.
        With ``metrics``, the ``marsit.pass_helper_share`` gauge records the
        share of blocks the helper ran: 0 when it did not run, near 0 when
        a busy host left it no core.

        Returns the grids by name and the table (``None`` without ``rngs``).
        """
        ranks = range(self.num_workers) if rows is None else rows
        width = max(
            _WORD_BITS,
            _BLOCK_BYTES // (8 * len(ranks)) // _WORD_BITS * _WORD_BITS,
        )
        key = (id(plan), None if rows is None else tuple(rows), width)
        cached = self._passes.get(key)
        if cached is None:
            cached = self._passes[key] = [
                plan,
                *_pass_blocks(plan, self.dimension, len(ranks), width),
                None,
            ]
        _, grids, blocks, table = cached
        buffer, pending = self.state.take_pending(rows)
        whole = (
            rows is None
            and isinstance(updates, np.ndarray)
            and updates.dtype == np.float64
        )
        if not whole:
            # Row by row over the whole vector: per-block row loops would
            # cost more in calls than the cache saves at trainer sizes.
            for rank in ranks:
                row = buffer[rank]
                if pending is not None:
                    row -= pending
                row += np.asarray(updates[rank], dtype=np.float64)

        def run(work, bits: np.ndarray) -> int:
            ran = 0
            for start, stop, out, lanes in work:
                ran += 1
                if whole:
                    block = buffer[:, start:stop]
                    if pending is not None:
                        block -= pending[start:stop]
                    block += updates[:, start:stop]
                if out is None:
                    continue
                if rows is None:
                    block = buffer[:, start:stop]
                else:
                    block = buffer[rows, start:stop]
                signs = np.greater_equal(block, 0.0, out=bits[:, : stop - start])
                words = np.packbits(signs, axis=1, bitorder="little")
                out[...] = words if lanes is None else words[lanes]
            return ran

        # Each thread packs through its own scratch, both allocated on this
        # thread: the helper allocates only a block's packbits output, so
        # it grows no heap arena of its own.
        work = iter(blocks)
        shape = (len(ranks), width)
        helper = None
        if len(ranks) * self.dimension * 8 >= _HELPER_MIN_BYTES and _cpus() >= 2:
            helper = _helper().submit(run, work, np.empty(shape, dtype=bool))
        failure = None
        try:
            if rngs is not None:
                table = cached[3] = draw_transients(plan, rngs, table)
        except BaseException as error:
            failure = error
        helper_ran = 0
        try:
            ran = run(work, np.empty(shape, dtype=bool))
        finally:
            if helper is not None:
                helper_ran = helper.result()
        if failure is not None:
            # The pass has run to its end: void it, as a failed sync is.
            self._void(updates, ranks)
            raise failure
        if metrics is not None:
            share = helper_ran / (ran + helper_ran)
            metrics.gauge("marsit.pass_helper_share").set(share)
        return dict(grids), table if rngs is not None else None

    def _void(
        self, updates: np.ndarray | Sequence[np.ndarray], ranks
    ) -> None:
        """Subtract this round's ``updates`` from ``ranks``' rows again."""
        buffer = self.state.compensation
        for rank in ranks:
            buffer[rank] -= np.asarray(updates[rank], dtype=np.float64)

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
        self.config.validate_topology(topology.name)
        if kind == "full_precision":
            from repro.allreduce.codec import FloatCodec, sum_plan

            plan = sum_plan(topology, self.dimension, FloatCodec().op)
        else:
            from repro.allreduce import get_topology

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
        self,
        cluster: Cluster,
        compiled: tuple[SyncPlan, str] | None,
        packed: dict[str, "PackedLaneGrid"],
        transients: list[np.ndarray] | None,
        scale: float,
    ) -> tuple[np.ndarray, str | None, int]:
        """Plan-driven sign aggregation; returns the consensus as
        ``{-scale, +scale}`` (line 9's ``g_t`` for ``scale = eta_s``).

        ``compiled`` is :meth:`_plan_for`'s ``(plan, digest)``, ``packed``
        holds one grid per ``Pack`` step of the plan, lanes in cluster-rank
        order over the *active* workers, and ``transients`` is the round's
        table (:func:`~repro.sched.executor.draw_transients`).  The executor
        merges into the grids, which the next round's pass packs over.  With
        one active worker there is no plan: its own signs are the result.
        """
        if compiled is None:
            row = self.state.compensation[self._active[0]]
            return np.where(row >= 0, scale, -scale), None, 0
        plan, digest = compiled
        executor = get_executor(self.config.engine)
        final = executor.run_one_bit(
            plan,
            cluster,
            packed,
            transients,
            verify_consensus=self.config.verify_consensus,
        )
        # The single unpack of the whole pipeline: words -> ±scale floats.
        return final.to_signs(scale), digest, plan.num_steps

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


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _pass_blocks(
    plan: SyncPlan | None, dimension: int, rows: int, width: int
) -> tuple[dict[str, "PackedLaneGrid"], list[tuple]]:
    """The compensation pass's column blocks and the grids they pack into.

    Each ``Pack`` step's columns split into its grid's segments, and each
    segment into blocks of ``width`` columns from the segment's start, so a
    block's signs fill whole words of one segment.  Columns no ``Pack``
    step covers (all of them without a plan) get blocks that pack nothing.
    A block is ``(start, stop, out, lanes)``: ``out`` is the segment's
    ``(lanes, bytes)`` slice of the grid words, or ``None``; ``lanes``
    orders the pass's rows into grid lanes, ``None`` meaning as they are.
    """
    from repro.allreduce.ring import PackedLaneGrid

    grids: dict[str, PackedLaneGrid] = {}
    spans = []
    if plan is not None:
        specs = {spec.name: spec for spec in plan.grids}
        for step in plan.steps:
            if not isinstance(step, Pack):
                continue
            spec = specs[step.grid]
            columns = step.stop - step.start
            grid = PackedLaneGrid.zeros(
                len(spec.lane_ranks), columns, spec.num_segments
            )
            grids[step.grid] = grid
            identity = spec.lane_ranks == tuple(range(rows))
            lanes = None if identity else list(spec.lane_ranks)
            raw = grid.words.view(np.uint8)
            segments = PackedLaneGrid.segment_spans(columns, spec.num_segments)
            for seg, (offset, length) in enumerate(segments):
                base = step.start + offset
                for first in range(0, length, width):
                    last = min(first + width, length)
                    out = raw[:, seg, first // 8 : (last + 7) // 8]
                    spans.append((base + first, base + last, out, lanes))

    def bare(start: int, stop: int) -> list[tuple]:
        return [
            (first, min(first + width, stop), None, None)
            for first in range(start, stop, width)
        ]

    spans.sort(key=lambda span: span[0])
    blocks = []
    covered = 0
    for span in spans:
        if span[0] < covered:
            raise ValueError("the plan's Pack steps overlap")
        blocks += bare(covered, span[0])
        blocks.append(span)
        covered = span[1]
    return grids, blocks + bare(covered, dimension)
