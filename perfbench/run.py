"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-mlp-ring --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the traced
pass and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output check passed; it is 2 when the
library cannot be imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: p90 needs at least ten samples beyond it.
MIN_ROUNDS = 110
#: Stop starting new episodes after this long, whatever ``--seconds`` says.
HARD_CAP_S = 120.0
TRACE_DIR = Path(__file__).resolve().parent / "out"


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for name in THREAD_CAPS:
        os.environ[name] = "1"


def import_library():
    """Import ``repro`` from this checkout's ``src/``; None if it is absent."""
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro
    except ImportError:
        return None
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        return None
    return repro


def host_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{name: os.environ.get(name) for name in THREAD_CAPS},
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _time_is_up(start: float, seconds: float, last: float) -> bool:
    """Whether one more pass of ``last`` seconds would overshoot ``seconds``.

    A run stops when ending now is closer to ``seconds`` than ending after
    another pass, so it measures ``seconds`` give or take half a pass.
    """
    elapsed = perf_counter() - start
    return elapsed >= HARD_CAP_S or elapsed + last / 2 >= seconds


def run_untraced(workload, seed: int, seconds: float, smoke: bool, min_rounds: int):
    """Repeat episodes for about ``seconds``, and until ``min_rounds`` were timed.

    Returns one :class:`RoundClock` per episode, and the episodes.
    """
    from perfbench.workloads import RoundClock

    clocks, episodes = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        clocks.append(RoundClock())
        episodes.append(
            workload.run(seed, clocks[-1], smoke=smoke, quality=not episodes)
        )
        gc.collect()
        timed = sum(len(c.round_s) for c in clocks)
        if perf_counter() - start >= HARD_CAP_S:
            break
        if timed >= min_rounds and _time_is_up(start, seconds, perf_counter() - began):
            break
    return clocks, episodes


def run_traced(workload, seed: int, seconds: float, smoke: bool):
    """Interleave untraced and traced episodes, then the alloc pass.

    On ``schemes-torus-faulty`` every pass runs one scheme at a time, with
    an observability-off episode between the untraced and traced ones, so
    drift in the host's speed hits neighbouring episodes alike.  Returns
    ``(recorder, clocks, traced episodes, episode groups, alloc peaks)``:
    ``clocks[name][i]`` of every name timed the same part back to back, and
    each group holds episodes that ran identical inputs.
    """
    from perfbench.spans import Recorder, measure_sync_alloc
    from perfbench.workloads import SCHEMES, RoundClock

    recorder = Recorder()
    if workload.name == "schemes-torus-faulty":
        parts = [{"schemes": (scheme,)} for scheme in SCHEMES]
        obs_off = ("obs-off", {"observability": False})
        runs = [("untraced", {}), obs_off, ("traced", {})]
    else:
        parts = [{}]
        runs = [("untraced", {}), ("traced", {})]
    clocks = {name: [] for name, _ in runs}
    groups = [[] for _ in parts]
    traced_episodes = []
    start = perf_counter()
    while True:
        began = perf_counter()
        for part, group in zip(parts, groups):
            for name, options in runs:
                traced = name == "traced"
                clock = RoundClock(recorder if traced else None)
                with recorder if traced else nullcontext():
                    episode = workload.run(
                        seed, clock, smoke=smoke, quality=False, **part, **options
                    )
                clocks[name].append(clock)
                group.append(episode)
                if traced:
                    traced_episodes.append(episode)
                gc.collect()
        if _time_is_up(start, seconds, perf_counter() - began):
            break
    peaks: list[int] = []
    with measure_sync_alloc(peaks):
        alloc = workload.run(seed, RoundClock(), smoke=smoke, **workload.alloc)
    groups.append([alloc])
    return recorder, clocks, traced_episodes, groups, peaks, len(parts)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _overhead_pct(slow, base) -> float:
    """How much slower the ``slow`` clocks ran than the paired ``base`` ones.

    Each pair timed the same part back to back; the result is the median
    over pairs of the ratio of median round times, as a percent increase.
    """
    ratios = [
        _median(a.round_s) / _median(b.round_s)
        for a, b in zip(slow, base)
        if a.round_s and b.round_s
    ]
    return (_median(ratios) - 1.0) * 100.0 if ratios else 0.0


def end_to_end(clocks, episodes) -> dict[str, tuple[float, str]]:
    """``name -> (value, sample-count note)`` for every end-to-end metric."""
    first = episodes[0]
    rounds = [sample for clock in clocks for sample in clock.round_s]
    setups = [sample for clock in clocks for sample in clock.setup_s]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A run without a quality figure failed its checks; it reads 0.
    quality = first.quality.get(
        "sign_match_rate", first.quality.get("final_test_acc", 0.0)
    )
    p90 = _percentile(rounds, 90)
    n = f"n={len(rounds)} rounds of {len(clocks)} episodes"
    return {
        "setup_s": (_median(setups), f"n={len(setups)} set-ups, median"),
        "rounds_per_s": (len(rounds) / sum(rounds), n),
        "round_ms_p50": (_percentile(rounds, 50) * 1e3, n),
        "round_ms_p90": (p90 * 1e3, f"{n}, {sum(r > p90 for r in rounds)} beyond"),
        "peak_rss_mb": (rss_mb, "n=1 process"),
        "sim_ms_per_round": (
            first.sim_s / first.rounds_run * 1e3,
            f"n={first.rounds_run} rounds of one episode",
        ),
        "wire_bytes_per_round": (
            first.wire_bytes / first.rounds_run,
            f"n={first.rounds_run} rounds of one episode",
        ),
        "quality": (quality, "sign_match_rate, else final_test_acc"),
    }


def per_layer(recorder, clocks, traced, parts: int, peaks) -> dict[str, float]:
    """Every per-layer metric from the traced episodes."""
    from perfbench.spans import layer_times

    totals, _, timed = layer_times(recorder)
    timed = max(timed, 1)
    # A whole episode is one pass over every part.
    whole_episodes = max(len(traced) // parts, 1)
    rounds_run = max(sum(ep.rounds_run for ep in traced), 1)

    def per_round(getter) -> float:
        return sum(getter(ep) for ep in traced) / rounds_run

    counts = recorder.counts
    metrics = {name: seconds / timed * 1e3 for name, seconds in totals.items()}
    for counter, name in (
        ("core.transient_elems", "core.transient_elems_per_round"),
        ("sched.plan_steps", "sched.plan_steps_per_round"),
        ("comm.exchange_calls", "comm.exchange_calls_per_round"),
        ("allreduce.mean_calls", "allreduce.mean_calls_per_round"),
        ("allreduce.signsum_calls", "allreduce.signsum_calls_per_round"),
        ("allreduce.allgather_calls", "allreduce.allgather_calls_per_round"),
    ):
        metrics[name] = counts.get(counter, 0) / timed
    for phase, name in (
        ("computation", "sim.compute_ms_per_round"),
        ("communication", "sim.comm_ms_per_round"),
        ("compression", "sim.compression_ms_per_round"),
    ):
        metrics[name] = per_round(lambda ep: ep.phase_s.get(phase, 0.0)) * 1e3
    untraced = clocks["untraced"]
    metrics.update(
        {
            "core.alloc_mb_per_round": _median(peaks) / 2**20,
            "sched.plan_compiles": recorder.plan_compiles / whole_episodes,
            "comm.messages_per_round": per_round(lambda ep: ep.messages),
            "faults.retries_per_round": per_round(
                lambda ep: ep.fault_counters.get("retries", 0)
            ),
            "faults.flipped_bits_per_round": per_round(
                lambda ep: ep.fault_counters.get("flipped_bits", 0)
            ),
            "obs.metrics_overhead_pct": _overhead_pct(
                untraced, clocks.get("obs-off", [])
            ),
            "bench.trace_overhead_pct": _overhead_pct(clocks["traced"], untraced),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def outcome(groups) -> tuple[int, int, list[str]]:
    """``(attempted, failed, failures)`` over groups of episodes.

    The episodes of one group ran the same inputs from the same seed, so
    their fingerprints (output digest, simulated time, bytes, messages)
    must repeat exactly; each mismatch counts as a failure.
    """
    attempted = failed = 0
    failures = []
    for episodes in groups:
        attempted += sum(ep.attempted for ep in episodes)
        failed += sum(ep.failed for ep in episodes)
        failures += [f for ep in episodes for f in ep.failures]
        reference = episodes[0].fingerprint()
        for index, episode in enumerate(episodes[1:], start=1):
            if episode.fingerprint() != reference:
                failures.append(f"episode {index} differs from episode 0 on one seed")
                failed += 1
    return attempted, failed, failures


def print_report(args, facts, attempted, failed, failures, episodes, rows) -> None:
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print("# host " + " ".join(f"{key}={value!r}" for key, value in facts.items()))
    print(
        f"# episodes={len(episodes)} attempted={attempted} failed={failed} "
        f"sha256={episodes[0].digest}"
    )
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for name, value, unit, note in rows:
        print(f"{name:36s} {value:>16.6g} {unit:14s} {note}")


def run_one(args) -> int:
    from perfbench.metrics import END_TO_END, INFO, PER_LAYER
    from perfbench.spans import write_chrome_trace
    from perfbench.workloads import WORKLOADS

    facts = host_facts()
    workload = WORKLOADS[args.workload]
    notes = []
    if args.trace:
        recorder, clocks, traced, groups, peaks, parts = run_traced(
            workload, args.seed, args.seconds, args.smoke
        )
        episodes = [ep for group in groups for ep in group]
        attempted, failed, failures = outcome(groups)
        values = per_layer(recorder, clocks, traced, parts, peaks)
        metrics = [(m, values[m.name], "traced") for m in PER_LAYER]
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_chrome_trace(recorder, trace_path)
        notes.append(f"# chrome trace {trace_path}")
    else:
        min_rounds = 0 if args.smoke else MIN_ROUNDS
        clocks, episodes = run_untraced(
            workload, args.seed, args.seconds, args.smoke, min_rounds
        )
        attempted, failed, failures = outcome([episodes])
        metrics = []
        if any(clock.round_s for clock in clocks) and episodes[0].rounds_run:
            values = end_to_end(clocks, episodes)
            metrics = [(m, *values[m.name]) for m in END_TO_END]
            info = dict(episodes[0].quality, error_rate=failed / attempted)
            for m in INFO:
                if m.name in info:
                    rounds = attempted if m.name == "error_rate" else episodes[0].rounds_run
                    metrics.append((m, info[m.name], f"n={rounds} rounds, printed only"))
    correct = failed == 0 and not failures and bool(metrics)
    rows = [(m.name, value, m.unit, note) for m, value, note in metrics]
    print_report(args, facts, attempted, failed, failures, episodes, rows)
    for note in notes:
        print(note)
    reported = {m.name for m in (PER_LAYER if args.trace else END_TO_END)}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": value, "unit": m.unit}
            for m, value, _ in metrics
            if m.name in reported
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-long sizes, for tests"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if import_library() is None:
        print(
            f"perfbench: cannot import repro from {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of "
            f"{', '.join(WORKLOADS)} or all",
            file=sys.stderr,
        )
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
