"""The deterministic fault injector the cluster and executors consult.

Determinism contract
--------------------
Every random fault decision is drawn from a Philox stream *keyed by the
decision's logical coordinates* — ``(plan seed, round, kind, step tag,
original link, occurrence index)`` hashed through BLAKE2b into a 128-bit
Philox key — never from a shared stream.  Each injector owns one Philox bit
generator and re-keys it per decision (counter zero, empty output buffer),
which yields exactly the stream a freshly constructed ``Philox(key=...)``
would, for a fraction of the construction cost.  The scalar engine moves
payloads one message at a time while the lane-stacked engine batches merges
before its bulk exchange, so the two interleave fault queries differently;
content keying makes the answer a pure function of *which* message is asked
about, so both engines see byte-identical faults, timelines, and
``faults.*`` metrics under the same seed (the chaos suite's cross-engine
invariant).

Crash remapping: after a recovery the cluster shrinks and re-ranks, but all
fault coordinates stay keyed by the *original* ranks via the injector's
``rank -> original rank`` map — a plan that jitters link ``(3, 4)`` keeps
jittering those two physical machines whatever their current ranks are.

Hook points (all no-ops costing one ``None`` check when no injector is
attached):

- ``Cluster.begin_step``/``exchange`` -> :meth:`FaultInjector.begin_step`
- ``Cluster.send``/``exchange`` per message -> :meth:`on_message`
- ``Cluster.end_step``/``exchange`` makespan -> :meth:`finish_step`
- executors' reduce hops -> :meth:`flip_mask`
- ``MarsitSynchronizer.synchronize`` -> :meth:`begin_round`,
  :meth:`take_new_crashes`, :meth:`set_active`
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.comm.bits import PackedBits
from repro.faults.plan import (
    BitFlip,
    FaultPlan,
    LinkJitter,
    LinkPartition,
    MessageDrop,
    Straggler,
    WorkerCrash,
)

__all__ = ["FaultInjector", "WorkerCrashedError"]

_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
#: Philox's output buffer holds four words; a full position means "empty".
_PHILOX_BUFFER_WORDS = 4


class WorkerCrashedError(RuntimeError):
    """Raised when traffic touches a crashed (un-recovered) worker."""


class FaultInjector:
    """Turns a :class:`~repro.faults.plan.FaultPlan` into per-message decisions.

    One injector serves one cluster (:meth:`bind` is called by
    ``Cluster.attach_faults``).  All state is derived: per-round caches of
    which links carry which fault probabilities, per-round occurrence
    counters, and the monotone dead-worker set.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters: dict[str, float] = {}
        self._cluster = None
        self._round = 0
        self._started = False
        self._physical: list[int] = []
        self._dead: set[int] = set()
        self._dead_current: frozenset[int] = frozenset()
        self._new_crashes: list[int] = []
        self._occurrences: dict[tuple, int] = {}
        self._penalty: dict[tuple[int, int], float] = {}
        # per-round caches keyed by *current* (src, dst) cluster ranks
        self._drop: dict[tuple[int, int], tuple[float, str]] = {}
        self._flip: dict[tuple[int, int], float] = {}
        self._jitter: dict[tuple[int, int], float] = {}
        self._slow: dict[tuple[int, int], float] = {}
        self._partitioned: frozenset[tuple[int, int]] = frozenset()
        # one bit generator re-keyed per decision (see _keyed_rng)
        self._bitgen = np.random.Philox(0)
        self._rng = np.random.Generator(self._bitgen)
        # faults.* counter handles, resolved lazily against one registry
        self._handles_registry = None
        self._handles: dict[str, object] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, cluster) -> None:
        """Attach to a cluster (called by ``Cluster.attach_faults``)."""
        self._cluster = cluster
        self._physical = list(range(cluster.num_workers))
        self.plan.validate(cluster.num_workers)
        self._rebuild_round_caches()

    def begin_round(self, round_idx: int) -> None:
        """Advance to ``round_idx``: activate crashes, refresh link caches.

        Idempotent per round — both the trainer and the synchronizer call it.
        """
        if self._started and round_idx == self._round:
            return
        self._started = True
        self._round = round_idx
        self._occurrences = {}
        for event in self.plan.events:
            if (
                isinstance(event, WorkerCrash)
                and event.round_idx <= round_idx
                and event.worker not in self._dead
            ):
                self._dead.add(event.worker)
                self._new_crashes.append(event.worker)
                self._count("crashes")
        self._refresh_dead_current()
        self._rebuild_round_caches()

    def begin_step(self) -> None:
        """Reset per-step retry penalties (one call per synchronous step)."""
        self._penalty = {}

    @property
    def dead_workers(self) -> frozenset[int]:
        """Original ranks of every worker crashed so far."""
        return frozenset(self._dead)

    def take_new_crashes(self) -> tuple[int, ...]:
        """Original ranks crashed since the last call (recovery trigger)."""
        crashed = tuple(self._new_crashes)
        self._new_crashes = []
        return crashed

    def set_active(self, survivors: list[int]) -> None:
        """Re-rank after recovery: current rank ``i`` is ``survivors[i]``.

        ``survivors`` are *original* ranks; fault coordinates keep using
        them, so decisions survive any number of re-rankings.
        """
        self._physical = list(survivors)
        self._refresh_dead_current()
        self._rebuild_round_caches()

    # ------------------------------------------------------------------
    # per-message and per-step hooks
    # ------------------------------------------------------------------
    def on_message(
        self, tag: str, src: int, dst: int, nbytes: int
    ) -> tuple[int, bool]:
        """Decide one message's fate: ``(extra wire bytes, deliver?)``.

        Retry-mode losses and partitions retransmit: the extra attempts'
        bytes travel the wire (inflating the step's makespan) and each
        failed attempt adds one ``retry_timeout_s`` to the link's step
        penalty.  Timeout-mode losses return ``deliver=False``.
        """
        if src in self._dead_current or dst in self._dead_current:
            raise WorkerCrashedError(
                f"message {src} -> {dst} touches a crashed worker"
            )
        key = (src, dst)
        entry = self._drop.get(key)
        partitioned = key in self._partitioned
        if entry is None and not partitioned:
            return 0, True
        origin = (self._physical[src], self._physical[dst])
        timeout = self.plan.retry_timeout_s
        if partitioned:
            # The link heals within the hop, after the full retry budget.
            failures = self.plan.max_attempts
            self._count("partition_hits")
        else:
            prob, mode = entry
            occ = self._next_occurrence(("drop", tag, origin))
            rng = self._keyed_rng("drop", tag, origin, occ)
            failures = 0
            limit = self.plan.max_attempts
            while failures < limit and rng.random() < prob:
                failures += 1
            if failures and mode == "timeout":
                self._count("drops")
                self._count("timeouts")
                self._penalty[key] = self._penalty.get(key, 0.0) + timeout
                return 0, False
        if not failures:
            return 0, True
        self._count("drops", failures)
        self._count("retries", failures)
        extra = failures * nbytes
        self._count("retry_bytes", extra)
        self._count("retry_wait_s", failures * timeout, metric=False)
        self._penalty[key] = self._penalty.get(key, 0.0) + failures * timeout
        return extra, True

    def finish_step(
        self, tag: str, step_bytes: dict[tuple[int, int], int]
    ) -> float:
        """The step's makespan under jitter, stragglers, and retry waits."""
        cluster = self._cluster
        jitter = self._jitter
        slow = self._slow
        penalty = self._penalty
        occ = self._next_occurrence(("step", tag)) if jitter else 0
        elapsed = 0.0
        for key, nbytes in step_bytes.items():
            seconds = cluster._link_transfer_time(key, nbytes)
            factor = slow.get(key)
            if factor is not None:
                seconds *= factor
            sigma = jitter.get(key)
            if sigma is not None:
                origin = (self._physical[key[0]], self._physical[key[1]])
                rng = self._keyed_rng("jitter", tag, origin, occ)
                seconds *= math.exp(sigma * rng.standard_normal())
            wait = penalty.get(key)
            if wait is not None:
                seconds += wait
            if seconds > elapsed:
                elapsed = seconds
        return elapsed

    @property
    def flips_active(self) -> bool:
        """Whether any link carries a bit-flip probability this round."""
        return bool(self._flip)

    def flip_mask(
        self, tag: str, src: int, dst: int, length: int
    ) -> PackedBits | None:
        """XOR mask for one reduce payload, or None when nothing flips."""
        prob = self._flip.get((src, dst))
        if prob is None or length == 0:
            return None
        origin = (self._physical[src], self._physical[dst])
        occ = self._next_occurrence(("flip", tag, origin))
        rng = self._keyed_rng("flip", tag, origin, occ)
        # Exactly ``rng.random(length) < prob``: random() is the top 53 bits
        # of one raw word w times 2**-53, and for an integer u, u < p * 2**53
        # iff u < ceil(p * 2**53) = T (the scaling by 2**53 is exact).  For
        # T < 2**53, (w >> 11) < T iff w < T << 11, one compare; T = 2**53
        # (p = 1) flips every bit.
        threshold = math.ceil(prob * 2.0**53)
        words = rng.bit_generator.random_raw(length)
        if threshold >= 1 << 53:
            bits = np.ones(length, dtype=bool)
        else:
            bits = words < np.uint64(threshold << 11)
        flipped = np.count_nonzero(bits)
        if not flipped:
            return None
        self._count("flipped_messages")
        self._count("flipped_bits", flipped)
        return PackedBits.from_bits(bits)

    # ------------------------------------------------------------------
    # recovery bookkeeping + reporting
    # ------------------------------------------------------------------
    def note_recovery(self, crashed: tuple[int, ...], survivors: list[int]) -> None:
        """Record one degrade-and-resync recovery (called by the synchronizer)."""
        self._count("recoveries")
        self._count("forced_resyncs")
        cluster = self._cluster
        if cluster is not None and cluster._obs_on:
            cluster.obs.tracer.instant(
                "faults.recovery",
                round=self._round,
                crashed=list(crashed),
                survivors=list(survivors),
            )

    def summary(self) -> dict:
        """JSON-ready roll-up for ``TrainResult.fault_summary``."""
        counters = {
            name: (value if name == "retry_wait_s" else int(value))
            for name, value in sorted(self.counters.items())
        }
        return {
            "seed": self.plan.seed,
            "events": len(self.plan.events),
            "counters": counters,
            "dead_workers": sorted(self._dead),
            "active_workers": list(self._physical),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _keyed_rng(self, kind: str, tag: str, origin, occ: int):
        """The injector's generator, re-keyed by a decision's coordinates.

        The BLAKE2b digest of the coordinates is the Philox key; the counter
        restarts at zero with an empty output buffer and no cached 32-bit
        half, so the stream is exactly that of a fresh ``Philox(key=key)``.
        The returned generator is shared: it is valid only until the next
        decision re-keys it, so callers draw from it at once.
        """
        token = repr((self.plan.seed, self._round, kind, tag, origin, occ))
        digest = hashlib.blake2b(token.encode("ascii"), digest_size=16).digest()
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": _ZERO_WORDS,
                "key": np.frombuffer(digest, dtype=np.uint64),
            },
            "buffer": _ZERO_WORDS,
            "buffer_pos": _PHILOX_BUFFER_WORDS,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng

    def _next_occurrence(self, key: tuple) -> int:
        occ = self._occurrences.get(key, 0)
        self._occurrences[key] = occ + 1
        return occ

    def _count(self, name: str, value: float = 1, metric: bool = True) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if metric and self._cluster is not None and self._cluster._obs_on:
            registry = self._cluster.obs.metrics
            if registry is None:
                return
            if registry is not self._handles_registry:
                self._handles_registry = registry
                self._handles = {}
            counter = self._handles.get(name)
            if counter is None:
                counter = self._handles[name] = registry.counter(f"faults.{name}")
            counter.inc(value)

    def _refresh_dead_current(self) -> None:
        inverse = {orig: cur for cur, orig in enumerate(self._physical)}
        self._dead_current = frozenset(
            inverse[rank] for rank in self._dead if rank in inverse
        )

    def _rebuild_round_caches(self) -> None:
        """Resolve active events onto the cluster's current links."""
        self._drop = {}
        self._flip = {}
        self._jitter = {}
        self._slow = {}
        partitioned = set()
        cluster = self._cluster
        if cluster is None:
            return
        round_idx = self._round
        physical = self._physical
        active = [
            event
            for event in self.plan.events
            if not isinstance(event, WorkerCrash) and event.active(round_idx)
        ]
        if not active:
            self._partitioned = frozenset()
            return
        for key in cluster.links:
            origin = (physical[key[0]], physical[key[1]])
            keep_prob = 1.0
            mode = "retry"
            flip_keep = 1.0
            variance = 0.0
            factor = 1.0
            for event in active:
                if isinstance(event, MessageDrop):
                    if event.links is None or origin in event.links:
                        keep_prob *= 1.0 - event.prob
                        if event.mode == "timeout":
                            mode = "timeout"
                elif isinstance(event, BitFlip):
                    if event.links is None or origin in event.links:
                        flip_keep *= 1.0 - event.prob
                elif isinstance(event, LinkJitter):
                    if event.links is None or origin in event.links:
                        variance += event.sigma * event.sigma
                elif isinstance(event, Straggler):
                    if event.worker in origin:
                        factor *= event.factor
                elif isinstance(event, LinkPartition):
                    if (event.src, event.dst) == origin:
                        partitioned.add(key)
            if keep_prob < 1.0:
                self._drop[key] = (1.0 - keep_prob, mode)
            if flip_keep < 1.0:
                self._flip[key] = 1.0 - flip_keep
            if variance > 0.0:
                self._jitter[key] = math.sqrt(variance)
            if factor != 1.0:
                self._slow[key] = factor
        self._partitioned = frozenset(partitioned)
