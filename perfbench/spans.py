"""Wall-clock spans recorded from outside the library.

A :class:`Recorder` replaces public callables of ``repro`` with thin wrappers
that open a span on entry and close it on exit, at the places where their
callers look them up: names imported into ``repro.sched.executor`` and
``repro.train.trainer``, methods on the classes whose instances the library
calls, and topology registry entries re-registered through
``register_topology``.  :meth:`Recorder.restore` puts every original back,
so the library is unchanged after a traced run.

Each span holds a name, start, end, parent and round id.  Spans live in
memory (parallel lists) and are written once, as Chrome trace-event JSON,
when the run ends.  A span's self time is its duration minus the durations
of its direct children; summed over a round, the self times of every span,
the round's own root span included, add up to the round's wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "Recorder",
    "SPAN_METRICS",
    "chrome_trace",
    "layer_times",
    "measure_sync_alloc",
    "self_times",
    "write_chrome_trace",
]

ROUND = "round"
CHECK = "bench.check"

#: Span name -> the per-layer metric its self time is summed into.  Every
#: span name the recorder emits appears here, so the metrics partition the
#: round: their sum plus ``bench.unattributed_ms`` is the round time.
SPAN_METRICS = {
    "nn.forward": "nn.forward_ms",
    "nn.backward": "nn.backward_ms",
    "data.batch": "data.batch_ms",
    "train.eval": "train.eval_ms",
    "train.apply": "train.apply_ms",
    "train.strategy": "train.strategy_ms",
    "core.sync": "core.sync_self_ms",
    "core.transform": "core.transform_ms",
    "core.transient": "core.transient_ms",
    "core.merge": "core.merge_ms",
    "sched.one_bit": "sched.one_bit_self_ms",
    "sched.fp": "sched.fp_self_ms",
    "comm.pack": "comm.pack_ms",
    "comm.unpack": "comm.unpack_ms",
    "comm.exchange": "comm.exchange_ms",
    "allreduce.mean": "allreduce.mean_ms",
    "allreduce.signsum": "allreduce.signsum_ms",
    "allreduce.allgather": "allreduce.allgather_ms",
    "compression.compress": "compression.compress_ms",
    "faults.hook": "faults.hook_ms",
    ROUND: "bench.unattributed_ms",
}

#: Registry entry field -> span name of the collective it holds.
_REGISTRY_SPANS = {
    "mean_allreduce": "allreduce.mean",
    "signsum_allreduce": "allreduce.signsum",
    "allgather_scalars": "allreduce.allgather",
}


def _transient_elems(local_bits, *args, **kwargs) -> int:
    lengths = getattr(local_bits, "lengths", None)
    return int(lengths.sum()) if lengths is not None else len(local_bits)


def _plan_steps(self, plan, *args, **kwargs) -> int:
    return plan.num_steps


def _wrap_points():
    """``(owner, attribute, span name, count hook, opaque)`` for every layer.

    ``count`` is ``None`` or ``(counter name, fn(*args) -> int)``; an opaque
    span hides everything it calls (evaluation reuses the model, and its
    forward passes belong to evaluation, not to the training step).
    """
    import repro.sched.executor as executor
    import repro.train.strategies as strategies
    import repro.train.trainer as trainer
    from repro.allreduce.ring import PackedLaneGrid
    from repro.comm.bits import PackedBits
    from repro.comm.cluster import Cluster
    from repro.compression.ef import EFSignCompressor
    from repro.core.marsit import MarsitSynchronizer
    from repro.core.optimizer import MarsitAdam, MarsitMomentum, MarsitSGD
    from repro.data.sharding import WorkerBatchIterator
    from repro.faults.inject import FaultInjector
    from repro.nn.layers import Sequential
    from repro.nn.losses import CrossEntropyLoss
    from repro.nn.module import Module
    from repro.sched import LaneStackedExecutor, ScalarExecutor

    transient = ("core.transient_elems", _transient_elems)
    steps = ("sched.plan_steps", _plan_steps)
    points = [
        (Module, "__call__", "nn.forward", None, False),
        (CrossEntropyLoss, "__call__", "nn.forward", None, False),
        (Sequential, "backward", "nn.backward", None, False),
        (CrossEntropyLoss, "backward", "nn.backward", None, False),
        (Module, "zero_grad", "nn.backward", None, False),
        (WorkerBatchIterator, "next_batch", "data.batch", None, False),
        (trainer, "evaluate", "train.eval", None, True),
        (Module, "flatten_grads", "train.apply", None, False),
        (Module, "add_flat_update", "train.apply", None, False),
        (MarsitSynchronizer, "synchronize", "core.sync", None, False),
        (MarsitSGD, "transform", "core.transform", None, False),
        (MarsitMomentum, "transform", "core.transform", None, False),
        (MarsitAdam, "transform", "core.transform", None, False),
        (executor, "transient_vector_batch", "core.transient", transient, False),
        (executor, "transient_vector_packed", "core.transient", transient, False),
        (executor, "merge_sign_bits_batch", "core.merge", None, False),
        (executor, "merge_sign_bits_packed", "core.merge", None, False),
        (PackedLaneGrid, "from_sign_matrix", "comm.pack", None, False),
        (PackedBits, "from_signs", "comm.pack", None, False),
        (PackedBits, "to_signs", "comm.unpack", None, False),
        (EFSignCompressor, "compress", "compression.compress", None, False),
        (strategies, "stochastic_sign", "compression.compress", None, False),
    ]
    for engine in (LaneStackedExecutor, ScalarExecutor):
        points.append((engine, "run_one_bit", "sched.one_bit", steps, False))
        points.append((engine, "run_full_precision", "sched.fp", steps, False))
    for method in ("exchange", "begin_step", "send", "recv", "end_step"):
        count = ("comm.exchange_calls", None)
        points.append((Cluster, method, "comm.exchange", count, False))
    for method in ("on_message", "finish_step", "flip_mask"):
        points.append((FaultInjector, method, "faults.hook", None, False))
    for cls in _subclasses(strategies.SyncStrategy):
        if "step" in vars(cls):
            points.append((cls, "step", "train.strategy", None, False))
    return points


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Recorder:
    """In-memory span recorder plus the patches that feed it.

    Round ids come from :meth:`start_round`; spans opened outside a timed
    round (set-up, the first round, which set-up includes) carry round
    ``None`` and count toward no per-round metric.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int | None] = []
        self.counts: dict[str, int] = {}
        self.plan_compiles = 0
        self.round_id: int | None = None
        self._round_span = -1
        self._stack: list[int] = []
        self._opaque = 0
        self._patches: list[tuple] = []
        self._entries: list = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def start_round(self, round_id: int) -> None:
        self.round_id = round_id
        self._round_span = self.begin(ROUND)

    def end_round(self) -> None:
        self.end(self._round_span)
        self.round_id = None

    @contextmanager
    def check_span(self):
        """An opaque span around the benchmark's own output checks."""
        index = self.begin(CHECK)
        self._opaque += 1
        try:
            yield
        finally:
            self._opaque -= 1
            self.end(index)

    def _bump(self, name: str, amount: int) -> None:
        if self.round_id is not None:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, fn, name: str, count=None, opaque: bool = False):
        recorder = self
        stack = self._stack
        names = self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Opaque parents hide their callees; a nested call of the same
            # layer (a Sequential calling its layers) stays in one span.
            if recorder._opaque or (stack and names[stack[-1]] == name):
                return fn(*args, **kwargs)
            if count is not None:
                counter, measure = count
                recorder._bump(counter, 1 if measure is None else measure(*args))
            index = recorder.begin(name)
            if opaque:
                recorder._opaque += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if opaque:
                    recorder._opaque -= 1
                recorder.end(index)

        return traced

    def _count_compiles(self, fn):
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            recorder.plan_compiles += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replace) -> None:
        """Swap ``owner.attr`` for ``replace(original function)``.

        Class attributes are read from the class ``__dict__`` so that
        classmethods stay classmethods; an inherited attribute is shadowed
        on ``owner`` and deleted again on restore.
        """
        own = vars(owner)
        had_own = attr in own
        raw = own[attr] if had_own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            patched = classmethod(replace(raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(replace(raw.__func__))
        else:
            patched = replace(raw)
        self._patches.append((owner, attr, had_own, raw))
        setattr(owner, attr, patched)

    def install(self) -> "Recorder":
        """Wrap every layer's public entry points; undo with :meth:`restore`."""
        if self._patches or self._entries:
            raise RuntimeError("recorder already installed")
        try:
            for owner, attr, name, count, opaque in _wrap_points():
                self.patch(
                    owner,
                    attr,
                    lambda fn, n=name, c=count, o=opaque: self._wrap(fn, n, c, o),
                )
            self._install_registry()
        except BaseException:
            self.restore()
            raise
        return self

    def _install_registry(self) -> None:
        from repro.allreduce import get_topology, register_topology, topology_names

        for topo in topology_names():
            entry = get_topology(topo)
            changes = {
                field: self._wrap(
                    getattr(entry, field),
                    span,
                    (f"{span}_calls", None),
                )
                for field, span in _REGISTRY_SPANS.items()
                if getattr(entry, field) is not None
            }
            if entry.compile_one_bit is not None:
                changes["compile_one_bit"] = self._count_compiles(
                    entry.compile_one_bit
                )
            self._entries.append(entry)
            register_topology(dataclasses.replace(entry, **changes))

    def restore(self) -> None:
        """Put back every original callable and registry entry."""
        from repro.allreduce import register_topology

        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        while self._entries:
            register_topology(self._entries.pop())

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(recorder: Recorder) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    durations = [end - start for start, end in zip(recorder.starts, recorder.ends)]
    result = list(durations)
    for index, parent in enumerate(recorder.parents):
        if parent >= 0:
            result[parent] -= durations[index]
    return result


def layer_times(recorder: Recorder) -> tuple[dict[str, float], float, int]:
    """``(metric -> summed self seconds, round seconds, timed rounds)``.

    Only spans inside timed rounds count.  Round seconds exclude the
    benchmark's own check spans, which belong to no layer.
    """
    selfs = self_times(recorder)
    totals = {metric: 0.0 for metric in SPAN_METRICS.values()}
    round_s = 0.0
    rounds = 0
    for index, name in enumerate(recorder.names):
        if recorder.rounds[index] is None:
            continue
        duration = recorder.ends[index] - recorder.starts[index]
        if name == ROUND:
            round_s += duration
            rounds += 1
        elif name == CHECK:
            round_s -= duration
            continue
        totals[SPAN_METRICS[name]] += selfs[index]
    return totals, round_s, rounds


def chrome_trace(recorder: Recorder, max_events: int = 50_000) -> dict:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing).

    Only the first ``max_events`` spans are written, to keep the file small.
    """
    events = []
    origin = recorder.starts[0] if recorder.starts else 0.0
    for index in range(min(len(recorder.names), max_events)):
        name = recorder.names[index]
        events.append(
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (recorder.starts[index] - origin) * 1e6,
                "dur": (recorder.ends[index] - recorder.starts[index]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "round": recorder.rounds[index],
                    "parent": recorder.parents[index],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: Recorder, path) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(recorder), handle)


@contextmanager
def measure_sync_alloc(peaks: list[int]):
    """Append the tracemalloc peak of every ``synchronize`` call to ``peaks``.

    Kept apart from the timing spans: tracing allocations slows the code it
    watches, so this runs on its own short pass.
    """
    recorder = Recorder()

    def replace(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    from repro.core.marsit import MarsitSynchronizer

    recorder.patch(MarsitSynchronizer, "synchronize", replace)
    try:
        yield
    finally:
        recorder.restore()
