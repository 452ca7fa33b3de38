"""The three benchmark workloads and the output checks that gate them.

Every workload runs in *episodes*.  An episode builds everything from the
seed (data, model, cluster, strategy), runs a fixed number of rounds, and
checks every round's outputs.  Its results are a pure function of the seed,
so repeated episodes in one run must agree bit for bit; the benchmark
repeats episodes until the run's time budget is spent.

Load model: closed loop, one caller.  The next round starts only after the
previous one returned, inside one single-threaded process.

Timing comes from :class:`RoundClock`.  Set-up time runs from the start of
building to the end of the first round (the first round compiles and caches
the SyncPlan, a cost every user pays once); every later round is one timed
sample.  Output checks run inside rounds but are excluded from the clock.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

__all__ = [
    "Episode",
    "RoundClock",
    "WORKLOADS",
    "Workload",
    "check_step",
    "ring_one_bit_bytes",
]

NUM_WORKERS = 16


class RoundClock:
    """Wall-clock samples of set-up and rounds, with check time excluded.

    With a :class:`~perfbench.spans.Recorder` attached, every timed round
    also becomes a root span and every check an opaque span.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.setup_s: list[float] = []
        self.round_s: list[float] = []
        self._ids = itertools.count()
        self._setup_start = 0.0
        self._round_start: float | None = None
        self._timed = False
        self._paused = 0.0

    def begin_setup(self) -> None:
        self.finish()
        self._paused = 0.0
        self._setup_start = perf_counter()

    def round_start(self, round_idx: int) -> None:
        now = perf_counter()
        self._close(now)
        self._round_start = now
        self._timed = round_idx > 0
        if self._timed:
            self._paused = 0.0
            if self.recorder is not None:
                self.recorder.start_round(next(self._ids))

    def finish(self) -> None:
        self._close(perf_counter())

    def mark(self) -> tuple[int, int]:
        """How many set-up and round samples the clock holds so far."""
        return len(self.setup_s), len(self.round_s)

    def combine_parts(self, mark: tuple[int, int], parts: int) -> None:
        """Fold the samples since ``mark`` of ``parts`` equal runs into columns.

        Round ``i`` of the result is the sum of round ``i`` of every part, and
        the parts' set-ups become one set-up, so a workload that trains
        several schemes in turn has homogeneous samples instead of a mixture
        whose quantiles jump between the schemes' clusters.
        """
        for samples, start in zip((self.setup_s, self.round_s), mark):
            tail = samples[start:]
            if parts < 2 or not tail or len(tail) % parts:
                continue
            width = len(tail) // parts
            samples[start:] = [sum(tail[i::width]) for i in range(width)]

    def _close(self, now: float) -> None:
        if self._round_start is None:
            return
        if self._timed:
            if self.recorder is not None:
                self.recorder.end_round()
            self.round_s.append(now - self._round_start - self._paused)
        else:
            self.setup_s.append(now - self._setup_start - self._paused)
        self._round_start = None

    @contextmanager
    def excluded(self):
        """Run the benchmark's own checks off the clock."""
        start = perf_counter()
        span = self.recorder.check_span() if self.recorder else nullcontext()
        try:
            with span:
                yield
        finally:
            self._paused += perf_counter() - start


@dataclass
class Episode:
    """What one episode ran, produced and failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rounds_run: int = 0
    sim_s: float = 0.0
    wire_bytes: int = 0
    messages: int = 0
    phase_s: dict[str, float] = field(default_factory=dict)
    fault_counters: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def add_cluster(self, cluster, rounds_run: int) -> None:
        self.rounds_run += rounds_run
        self.sim_s += cluster.timeline.total
        self.wire_bytes += cluster.total_bytes
        self.messages += cluster.total_messages
        for phase, seconds in cluster.timeline.breakdown().items():
            self.phase_s[phase] = self.phase_s.get(phase, 0.0) + seconds
        if cluster.faults is not None:
            counters = cluster.faults.summary()["counters"]
            for name, value in counters.items():
                self.fault_counters[name] = self.fault_counters.get(name, 0) + value

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for a given seed."""
        return (self.digest, self.sim_s, self.wire_bytes, self.messages)


def check_step(updates, eta_s: float | None) -> str | None:
    """Output check for one round's per-worker updates.

    Every worker must hold the same finite update; on one-bit rounds
    (``eta_s`` given) every element must be exactly ``+eta_s`` or ``-eta_s``.
    """
    first = np.asarray(updates[0])
    if not np.isfinite(first).all():
        return "non-finite update"
    for update in updates[1:]:
        if update is not first and not np.array_equal(update, first):
            return "workers hold different updates"
    if eta_s is not None and not np.all(np.abs(first) == eta_s):
        return "one-bit update takes values other than +-eta_s"
    return None


def ring_one_bit_bytes(num_workers: int, dimension: int) -> int:
    """Analytic wire bytes of one one-bit ring round.

    The vector is cut into ``num_workers`` segments (``np.array_split``
    sizes); each of the 2(M-1) hops sends every segment once, packed at one
    bit per element and rounded up to whole bytes.
    """
    base, extra = divmod(dimension, num_workers)
    sizes = [base + 1] * extra + [base] * (num_workers - extra)
    return 2 * (num_workers - 1) * sum((size + 7) // 8 for size in sizes)


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------
def _mnist(seed: int):
    from repro.data import mnist_like, train_test_split

    data = mnist_like(num_samples=1200, size=8, noise=0.6, seed=seed)
    return train_test_split(data, 0.25, seed=seed)


class _RoundProbe:
    """Trainer callback: round boundaries for the clock, checks per round."""

    def __init__(self, clock: RoundClock, eta_s: float | None) -> None:
        self.clock = clock
        self.eta_s = eta_s
        self.ok_rounds = 0
        self.failures: list[str] = []

    def on_round_start(self, round_idx, **context) -> None:
        self.clock.round_start(round_idx)

    def on_sync_done(self, round_idx, step, **context) -> None:
        with self.clock.excluded():
            eta = self.eta_s if step.bits_per_element == 1.0 else None
            problem = check_step(step.updates, eta)
            if problem is None:
                self.ok_rounds += 1
            else:
                self.failures.append(f"round {round_idx}: {problem}")

    def on_eval(self, round_idx, record, **context) -> None:
        pass


def _train(
    episode: Episode,
    clock: RoundClock,
    name: str,
    build,
    rounds: int,
    eta_s: float | None,
    digest,
):
    """Build and run one trainer; fold its results into ``episode``.

    Returns the :class:`~repro.train.TrainResult` if the run finished with
    an evaluation history, else None.
    """
    probe = _RoundProbe(clock, eta_s)
    episode.attempted += rounds
    clock.begin_setup()
    result = None
    try:
        trainer = build([probe])
        result = trainer.run()
    except Exception:
        probe.failures.append(f"raised: {traceback.format_exc(limit=3)}")
    finally:
        clock.finish()
    ok = probe.ok_rounds
    if result is not None:
        if result.diverged:
            probe.failures.append(f"diverged after {result.rounds_run} rounds")
        history = result.history
        if not history or not history[-1].train_loss < history[0].train_loss:
            probe.failures.append("final train loss is not below the initial loss")
            ok = min(ok, rounds - 1)
        episode.add_cluster(trainer.cluster, result.rounds_run)
        digest.update(trainer.model.flatten_params().tobytes())
    episode.failed += rounds - max(ok, 0)
    episode.failures.extend(f"{name} {problem}" for problem in probe.failures)
    return result if result is not None and result.history else None


def _training_quality(results) -> dict[str, float]:
    if not results:
        return {}
    return {
        "final_train_loss": float(np.mean([r.history[-1].train_loss for r in results])),
        "final_test_acc": float(np.mean([r.final_accuracy for r in results])),
    }


def train_mlp_ring(seed: int, clock: RoundClock, smoke: bool = False, **kw) -> Episode:
    """Marsit-K (K = 25, SGD base) on quick_train's MLP, M = 16 ring."""
    from repro import DistributedTrainer, MarsitStrategy, TrainConfig
    from repro.nn.zoo import mlp

    rounds = kw.get("rounds") or (30 if smoke else 300)
    eta_s = 8e-3
    episode = Episode()
    digest = hashlib.sha256()

    def build(callbacks):
        train_set, test_set = _mnist(seed)

        def factory():
            return mlp(64, hidden=(32,), num_classes=10, seed=seed)

        strategy = MarsitStrategy(
            local_lr=0.05,
            global_lr=eta_s,
            num_workers=NUM_WORKERS,
            dimension=factory().num_parameters(),
            full_precision_every=25,
            base_optimizer="sgd",
            seed=seed,
        )
        config = TrainConfig(
            num_workers=NUM_WORKERS,
            rounds=rounds,
            batch_size=32,
            topology="ring",
            eval_every=50,
            seed=seed,
        )
        return DistributedTrainer(
            factory, train_set, test_set, strategy, config, callbacks=callbacks
        )

    result = _train(episode, clock, "marsit-k", build, rounds, eta_s, digest)
    episode.quality = _training_quality([result] if result else [])
    episode.digest = digest.hexdigest()
    return episode


SCHEMES = ("psgd", "signsgd", "ef-signsgd", "ssdm", "marsit-k")


def fault_plan(seed: int):
    """Link jitter, one straggler, retry-mode drops and bit flips."""
    from repro.faults import BitFlip, FaultPlan, LinkJitter, MessageDrop, Straggler

    return FaultPlan(
        seed=seed,
        events=(
            LinkJitter(sigma=0.25),
            Straggler(worker=seed % NUM_WORKERS, factor=2.0),
            MessageDrop(prob=0.02, mode="retry"),
            BitFlip(prob=1e-3),
        ),
    )


def schemes_torus_faulty(
    seed: int,
    clock: RoundClock,
    smoke: bool = False,
    observability: bool = True,
    **kw,
) -> Episode:
    """Table 2's column mix, each trained in turn on a faulty 4x4 torus."""
    from repro import (
        DistributedTrainer,
        EFSignSGDStrategy,
        MarsitStrategy,
        PSGDStrategy,
        SSDMStrategy,
        SignSGDMajorityStrategy,
        TrainConfig,
    )
    from repro.nn.zoo import mlp
    from repro.obs import Observability

    rounds = kw.get("rounds") or (6 if smoke else 20)
    schemes = kw.get("schemes") or SCHEMES
    hidden = (32,) if smoke else (256, 256)
    eta_s = 8e-3
    episode = Episode()
    digest = hashlib.sha256()
    results = []
    mark = clock.mark()
    for name in schemes:

        def build(callbacks, name=name):
            train_set, test_set = _mnist(seed)

            def factory():
                return mlp(64, hidden=hidden, num_classes=10, seed=seed)

            dimension = factory().num_parameters()
            strategy = {
                "psgd": lambda: PSGDStrategy(lr=0.05, num_workers=NUM_WORKERS),
                "signsgd": lambda: SignSGDMajorityStrategy(
                    lr=0.002, num_workers=NUM_WORKERS
                ),
                "ef-signsgd": lambda: EFSignSGDStrategy(
                    lr=0.05, num_workers=NUM_WORKERS
                ),
                "ssdm": lambda: SSDMStrategy(
                    lr=0.03, num_workers=NUM_WORKERS, seed=seed
                ),
                "marsit-k": lambda: MarsitStrategy(
                    local_lr=0.05,
                    global_lr=eta_s,
                    num_workers=NUM_WORKERS,
                    dimension=dimension,
                    full_precision_every=25,
                    base_optimizer="sgd",
                    seed=seed,
                ),
            }[name]()
            config = TrainConfig(
                num_workers=NUM_WORKERS,
                rounds=rounds,
                batch_size=32,
                topology="torus",
                torus_shape=(4, 4),
                eval_every=max(1, rounds // 2),
                seed=seed,
                faults=fault_plan(seed),
            )
            return DistributedTrainer(
                factory,
                train_set,
                test_set,
                strategy,
                config,
                callbacks=callbacks,
                observability=Observability.metrics_only() if observability else None,
            )

        eta = eta_s if name == "marsit-k" else None
        result = _train(episode, clock, name, build, rounds, eta, digest)
        if result is not None:
            results.append(result)
    # One workload set-up (round) is one set-up (round) of every scheme.
    clock.combine_parts(mark, len(schemes))
    episode.quality = _training_quality(results)
    episode.digest = digest.hexdigest()
    return episode


# ----------------------------------------------------------------------
# the bare synchronizer at D = 1M
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _update_pool(seed: int, dimension: int) -> tuple[np.ndarray, ...]:
    """Two seeded, read-only (M, D) update matrices, shared by a run's episodes.

    Each is a shared gradient plus twice as much per-worker noise, at the
    scale of a local step.  Read-only, so a synchronizer that writes into
    its input fails loudly instead of changing later episodes' inputs.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(2):
        shared = rng.standard_normal(dimension)
        updates = rng.standard_normal((NUM_WORKERS, dimension))
        updates *= 2.0
        updates += shared
        updates *= 1e-3
        updates.flags.writeable = False
        pool.append(updates)
    return tuple(pool)


def sync_1m_ring(
    seed: int, clock: RoundClock, smoke: bool = False, quality: bool = True, **kw
) -> Episode:
    """``MarsitSynchronizer.synchronize`` called directly, M = 16 ring.

    Inputs cycle through :func:`_update_pool`, handed over as one (M, D)
    array each.  The pool is the benchmark's input, not the library's work,
    so it is built before the set-up clock starts.
    """
    from repro.comm import Cluster
    from repro.comm.topology import ring_topology
    from repro.core import MarsitConfig, MarsitSynchronizer

    dimension = 50_000 if smoke else 1_000_000
    rounds = kw.get("rounds") or (4 if smoke else 20)
    eta_s = 1e-3
    expected_bytes = ring_one_bit_bytes(NUM_WORKERS, dimension)
    episode = Episode(attempted=rounds)
    digest = hashlib.sha256()
    matches = []
    ok = 0

    pool = _update_pool(seed, dimension)
    clock.begin_setup()
    config = MarsitConfig(
        global_lr=eta_s,
        full_precision_every=None,
        seed=seed,
        engine="batched",
        verify_consensus=False,
    )
    synchronizer = MarsitSynchronizer(config, NUM_WORKERS, dimension)
    cluster = Cluster(ring_topology(NUM_WORKERS))
    # Mean compensation entering the next round (it starts at zero); kept
    # as one D-vector so the check holds no extra (M, D) matrix.
    compensation_mean = np.zeros(dimension)
    rounds_run = 0
    try:
        for round_idx in range(rounds):
            clock.round_start(round_idx)
            updates = pool[round_idx % len(pool)]
            bytes_before = cluster.total_bytes
            report = synchronizer.synchronize(cluster, updates, round_idx)
            rounds_run += 1
            with clock.excluded():
                problem = check_step(report.global_updates, eta_s)
                sent = cluster.total_bytes - bytes_before
                if problem is None and sent != expected_bytes:
                    problem = f"sent {sent} B, one-bit ring volume is {expected_bytes} B"
                if problem is None:
                    ok += 1
                else:
                    episode.failures.append(f"round {round_idx}: {problem}")
                consensus = report.global_updates[0] > 0
                digest.update(np.packbits(consensus).tobytes())
                if quality:
                    # Fig. 1b's matching rate: consensus sign against the
                    # sign of the exact mean compensated update.
                    mean = updates.mean(axis=0) + compensation_mean
                    matches.append(float(np.mean(consensus == (mean > 0))))
                    compensation_mean = synchronizer.state.compensation.mean(axis=0)
    except Exception:
        episode.failures.append(f"raised: {traceback.format_exc(limit=3)}")
    finally:
        clock.finish()
    episode.failed = rounds - ok
    episode.add_cluster(cluster, rounds_run)
    if matches:
        episode.quality["sign_match_rate"] = float(np.mean(matches))
    episode.digest = digest.hexdigest()
    return episode


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: object
    #: Keyword overrides for the short tracemalloc pass.
    alloc: dict = field(default_factory=dict)


WORKLOADS = {
    "train-mlp-ring": Workload(
        "train-mlp-ring",
        "Trainer-size D=2,410: nn, data, train, sched and comm exchange "
        "overhead should move rounds_per_s here; no change predicted for "
        "core or comm pack bandwidth work.",
        train_mlp_ring,
        alloc={"rounds": 26},
    ),
    "sync-1m-ring": Workload(
        "sync-1m-ring",
        "Bare synchronize at D=1M: core bookkeeping, transient draw and comm "
        "pack/unpack should move round_ms_p50 and peak_rss_mb here; no nn, FP "
        "round or faults: control for interpreter work.",
        sync_1m_ring,
        alloc={"rounds": 3, "quality": False},
    ),
    "schemes-torus-faulty": Workload(
        "schemes-torus-faulty",
        "Five Table 2 schemes trained on a faulty 4x4 torus, D=85,002: nn, "
        "data, train, allreduce, compression, fault hook and obs work moves "
        "rounds_per_s here; no change predicted for D=1M core work.",
        schemes_torus_faulty,
        alloc={"rounds": 26, "schemes": ("marsit-k",)},
    ),
}
