"""Lockstep-engine benchmark: simulated one-bit round wall-clock vs workers.

PR 1 made every *kernel* 64-elements-per-op fast, which left the round loop
dominated by Python interpreter overhead: O(M) sends, recvs, merges and RNG
draws per synchronous step.  The lane-stacked engine collapses each step to
one batched numpy op over all (cycle, position) lanes, so a round's cost
stops scaling with worker count at the interpreter level.

This bench times one Marsit one-bit ring round old-vs-new at
M in {8, 16, 32, 64} workers, D = 1M elements.  Both engines consume
identical per-rank RNG streams, so before timing the bench asserts their
global updates, total bytes and total messages are exactly equal.  Results
go to ``benchmarks/results/lockstep.txt`` and machine-readable
``BENCH_lockstep.json`` at the repo root; only full mode writes them, and
check mode prints its table without touching any tracked file.

Since the SyncPlan refactor both engines are plan interpreters: the round
is compiled once to a :class:`~repro.sched.plan.SyncPlan` and executed by
``ScalarExecutor`` / ``LaneStackedExecutor``.  The bench therefore grew a
*plan-executor guard*: :func:`run_plan_guard` keeps a frozen copy of the
pre-IR hand-coded batched ring round (built on the same
``lockstep_ring_*`` primitives the compiler targets) and times it
interleaved with the plan executor in one process — the only comparison
that survives noisy shared machines.  The guard also asserts the two
produce bit-identical sign words and identical traffic/timeline charges.
Full mode asserts the executor stays within ``PLAN_OVERHEAD_CEILING``
(5%) of the hand-coded round; check mode prints the ratio.

A measurement honesty note: earlier recordings timed each engine's rounds
back to back and reported a >= 4x batched-over-scalar speedup at M = 32.
Re-measuring with the engines *interleaved round by round* — so both
sample the same machine-noise windows — shows the two engines within a
few percent of each other in the quiet, memory-bound regime, and the
*pre-refactor hand-coded engines reproduce the same ~1x ratio*, so the
old figure reflected noise-window sampling, not engine cost.  The batched
engine's interpreter-overhead win is real only under CPU contention,
which cannot be asserted reliably, so the scalar-vs-batched speedup is
recorded for reference but no longer a hard floor.

Run the full benchmark (asserts the 5% plan-executor ceiling)::

    PYTHONPATH=src python benchmarks/bench_lockstep.py

or the seconds-long smoke mode the test suite wires in::

    PYTHONPATH=src python benchmarks/bench_lockstep.py --check
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np
import pytest

from repro.allreduce import get_topology
from repro.allreduce.ring import (
    PackedLaneGrid,
    lockstep_ring_all_gather,
    lockstep_ring_reduce_scatter,
)
from repro.bench import format_table, save_report
from repro.comm.bits import PackedBits, PackedBitsBatch
from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.comm.topology import ring_topology
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.core.sign_ops import merge_sign_bits_batch, transient_vector_batch
from repro.sched import get_executor
from repro.sched.plan import CompileContext

FULL_DIMENSION = 1_000_000
FULL_WORKERS = (8, 16, 32, 64)
CHECK_DIMENSION = 20_000
CHECK_WORKERS = (4, 8)
#: Plan executor vs the frozen hand-coded round, interleaved in-process
#: (full mode asserts; check-mode timings are noise and only printed).
PLAN_OVERHEAD_CEILING = 1.05
GUARD_WORKERS = 32
GUARD_REPEATS = 5
_SEED = 7

_JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_lockstep.json"


def _make_rngs(num_workers: int) -> list[np.random.Generator]:
    """Per-rank streams exactly as ``MarsitSynchronizer`` seeds them."""
    seeds = np.random.SeedSequence(_SEED).spawn(num_workers)
    return [np.random.default_rng(seed) for seed in seeds]


class _EngineRun:
    """One engine's persistent synchronizer + best-of round timings."""

    def __init__(self, engine: str, num_workers: int, dimension: int) -> None:
        self.cluster = Cluster(ring_topology(num_workers))
        self.sync = MarsitSynchronizer(
            MarsitConfig(
                global_lr=0.01, seed=_SEED, engine=engine,
                verify_consensus=False,
            ),
            num_workers,
            dimension,
        )
        self.best = float("inf")
        self.outputs: list[np.ndarray] = []
        self.digest: str | None = None

    def round(self, updates: np.ndarray, round_idx: int) -> None:
        start = time.perf_counter()
        report = self.sync.synchronize(self.cluster, updates, round_idx)
        self.best = min(self.best, time.perf_counter() - start)
        self.outputs.append(report.global_updates[0])
        self.digest = report.plan_digest


def run_rounds(dimension: int, workers: tuple[int, ...], rounds: int) -> dict:
    """Time scalar vs batched rounds per worker count; verify equivalence.

    The engines alternate round by round so their timings sample the same
    noise windows — timing one engine's rounds back to back and then the
    other's makes the ratio track machine load, not engine cost.
    """
    results: dict = {}
    rng = np.random.default_rng(5)
    for num_workers in workers:
        updates = rng.standard_normal((num_workers, dimension))
        old = _EngineRun("scalar", num_workers, dimension)
        new = _EngineRun("batched", num_workers, dimension)
        for round_idx in range(1, rounds + 1):
            old.round(updates, round_idx)
            new.round(updates, round_idx)
        for reference, candidate in zip(old.outputs, new.outputs):
            if not np.array_equal(reference, candidate):
                raise AssertionError(
                    f"batched engine diverged from scalar at M={num_workers}"
                )
        old_traffic = (old.cluster.total_bytes, old.cluster.total_messages)
        new_traffic = (new.cluster.total_bytes, new.cluster.total_messages)
        if old_traffic != new_traffic:
            raise AssertionError(
                f"traffic accounting diverged at M={num_workers}: "
                f"{old_traffic} vs {new_traffic}"
            )
        if old.digest != new.digest:
            raise AssertionError(
                f"plan digest diverged at M={num_workers}: "
                f"{old.digest} vs {new.digest}"
            )
        results[str(num_workers)] = {
            "old_s": old.best,
            "new_s": new.best,
            "speedup": old.best / max(new.best, 1e-12),
            "plan_digest": new.digest,
        }
    return results


# ----------------------------------------------------------------------
# Plan-executor guard: frozen hand-coded batched RAR round vs the
# LaneStackedExecutor interpreting the compiled ring plan.
# ----------------------------------------------------------------------


def _hand_coded_ring_round(
    cluster: Cluster,
    matrix: np.ndarray,
    rngs: list[np.random.Generator],
) -> PackedBits:
    """The pre-SyncPlan ``_one_bit_ring_batched`` body, frozen verbatim.

    Kept here (and only here) as the guard's reference: same schedule
    primitives, kernels, RNG stream order, and Section 4.1.1 charges the
    plan compiler emits, with zero plan interpretation in the loop.
    """
    size = matrix.shape[0]
    ranks = list(range(size))
    grid = PackedLaneGrid.from_sign_matrix(matrix, size)
    model = cluster.cost_model
    segment_elems = int(grid.lengths[0].max()) if grid.lengths.size else 0

    def combine(
        received: PackedBitsBatch,
        local: PackedBitsBatch,
        step: int,
        lane_ranks,
    ) -> PackedBitsBatch:
        transient = transient_vector_batch(
            local,
            received_weights=step + 1,
            local_weights=1,
            rngs=[rngs[rank] for rank in lane_ranks],
        )
        return merge_sign_bits_batch(received, local, transient)

    def charge_hop(step: int, transfer: float) -> None:
        overlapped = model.compress_time(segment_elems) + model.rng_time(
            segment_elems
        )
        cluster.charge(Phase.COMPRESSION, max(0.0, overlapped - transfer))
        cluster.charge(Phase.COMPRESSION, model.bitop_time(segment_elems))

    with cluster.obs.tracer.span("reduce-scatter", cat="phase", tag="m-rs"):
        cluster.charge(Phase.COMPRESSION, model.compress_time(segment_elems))
        lockstep_ring_reduce_scatter(
            cluster, [ranks], grid, combine, tag="m-rs", on_step_end=charge_hop
        )
    with cluster.obs.tracer.span("all-gather", cat="phase", tag="m-ag"):
        lockstep_ring_all_gather(cluster, [ranks], grid, tag="m-ag")
    return PackedBits.concat(grid.segments_of(0))


def run_plan_guard(
    dimension: int, num_workers: int = GUARD_WORKERS, repeats: int = GUARD_REPEATS
) -> dict:
    """Interleaved hand-coded vs plan-executor timing of one RAR round.

    Alternating the two variants inside one process makes the ratio robust
    to machine-level noise that sinks any cross-run comparison.  Also
    asserts bit-identical sign words and identical traffic + timeline.
    """
    matrix = np.random.default_rng(11).standard_normal((num_workers, dimension))
    plan = get_topology("ring").compile_one_bit(
        CompileContext(num_workers=num_workers, dimension=dimension)
    )
    executor = get_executor("batched")

    def time_hand() -> tuple[float, PackedBits, Cluster]:
        cluster = Cluster(ring_topology(num_workers))
        rngs = _make_rngs(num_workers)
        start = time.perf_counter()
        final = _hand_coded_ring_round(cluster, matrix, rngs)
        return time.perf_counter() - start, final, cluster

    def time_plan() -> tuple[float, PackedBits, Cluster]:
        cluster = Cluster(ring_topology(num_workers))
        rngs = _make_rngs(num_workers)
        start = time.perf_counter()
        final = executor.run_one_bit(
            plan, cluster, matrix, rngs, verify_consensus=False
        )
        return time.perf_counter() - start, final, cluster

    hand_best = plan_best = float("inf")
    for _ in range(repeats):
        hand_s, hand_final, hand_cluster = time_hand()
        plan_s, plan_final, plan_cluster = time_plan()
        hand_best = min(hand_best, hand_s)
        plan_best = min(plan_best, plan_s)
        if not hand_final.equals(plan_final):
            raise AssertionError(
                "plan executor diverged from the hand-coded round"
            )
        if (hand_cluster.total_bytes, hand_cluster.total_messages) != (
            plan_cluster.total_bytes,
            plan_cluster.total_messages,
        ):
            raise AssertionError("plan executor traffic accounting diverged")
        if hand_cluster.timeline.seconds != plan_cluster.timeline.seconds:
            raise AssertionError("plan executor timeline charges diverged")
    return {
        "dimension": dimension,
        "num_workers": num_workers,
        "plan_digest": plan.digest(),
        "hand_coded_s": hand_best,
        "plan_executor_s": plan_best,
        "overhead": plan_best / max(hand_best, 1e-12),
    }


def _write_json(payload: dict) -> None:
    try:
        _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:
        pass  # read-only checkout: the printed table is still the output


def _report(mode: str, dimension: int, workers: dict, guard: dict) -> str:
    rows = [
        [
            f"M={num_workers}",
            f"{entry['old_s'] * 1e3:.1f}",
            f"{entry['new_s'] * 1e3:.1f}",
            f"{entry['speedup']:.1f}x",
        ]
        for num_workers, entry in workers.items()
    ]
    table = format_table(
        ["workers", "scalar ms/round", "batched ms/round", "speedup"], rows
    )
    guard_line = (
        f"plan-executor guard (M={guard['num_workers']}, interleaved): "
        f"hand-coded {guard['hand_coded_s'] * 1e3:.1f} ms, "
        f"plan {guard['plan_executor_s'] * 1e3:.1f} ms, "
        f"overhead {guard['overhead']:.3f}x"
    )
    return (
        f"Lockstep one-bit ring round wall-clock "
        f"({mode}, D={dimension})\n" + table + "\n" + guard_line
    )


def run_mode(mode: str) -> dict:
    """Run ``'full'`` mode (persist JSON + text) or ``'check'`` (print only)."""
    if mode == "full":
        # Best-of-5: machine noise swings multi-second runs several-fold,
        # so both engines need enough samples to catch a quiet window.
        dimension, workers, rounds = FULL_DIMENSION, FULL_WORKERS, 5
        guard_workers, repeats = GUARD_WORKERS, GUARD_REPEATS
    else:
        dimension, workers, rounds = CHECK_DIMENSION, CHECK_WORKERS, 2
        guard_workers, repeats = max(CHECK_WORKERS), 2
    per_worker = run_rounds(dimension, workers, rounds)
    guard = run_plan_guard(dimension, guard_workers, repeats)
    report = _report(mode, dimension, per_worker, guard)
    if mode == "full":
        _write_json(
            {
                "full": {"dimension": dimension, "workers": per_worker},
                "full_plan_guard": guard,
            }
        )
        save_report("lockstep", report)
    else:
        print(report)
    return {"workers": per_worker, "plan_guard": guard}


def _assert_full_floors(results: dict) -> None:
    guard = results["plan_guard"]
    assert guard["overhead"] <= PLAN_OVERHEAD_CEILING, guard


@pytest.mark.slow
def test_lockstep(benchmark):
    from benchmarks.conftest import run_once

    results = run_once(benchmark, lambda: run_mode("full"))
    _assert_full_floors(results)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="seconds-long smoke mode (small input, no speedup asserts)",
    )
    args = parser.parse_args()
    if args.check:
        run_mode("check")
        return
    _assert_full_floors(run_mode("full"))


if __name__ == "__main__":
    main()
