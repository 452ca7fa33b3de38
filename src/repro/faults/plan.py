"""Declarative, seeded fault plans for the simulated cluster.

A :class:`FaultPlan` is pure data: a seed, a tuple of fault *events*, and the
recovery knobs (retry budget, per-hop timeout, crash quorum).  Nothing here
draws randomness or touches the cluster — the :mod:`repro.faults.inject`
injector turns a plan into deterministic per-message decisions.

Events
------
:class:`LinkJitter`
    Lognormal per-step multiplier ``exp(sigma * z)`` on a link's transfer
    time — the DynamiQ-style link variance a multi-hop ring is sensitive to.
:class:`Straggler`
    A deterministic slowdown factor on every link incident to one worker.
:class:`MessageDrop`
    Per-message loss.  ``mode="retry"`` (default) models a reliable
    transport: each loss costs one timeout plus a retransmission and the
    message always lands within ``FaultPlan.max_attempts`` tries.
    ``mode="timeout"`` loses the message terminally — the receiver times
    out and the caller must abort/clean the round
    (:meth:`~repro.comm.cluster.Cluster.abort_step` +
    :meth:`~repro.comm.cluster.Cluster.discard_pending`).  Sum plans (the
    FP mean, the sign sum, cascading) move every message through the
    cluster on both engines, so a terminal loss raises there on either.
    In a one-bit round terminal mode is a scalar-engine diagnostic: the
    lane-stacked engine's bulk exchange models only the reliable-transport
    protocol, because its payloads never cross the cluster.
:class:`BitFlip`
    Per-bit corruption of one-bit *reduce* payloads on the wire.  Gather
    (broadcast) hops are modelled as checksum-protected: a flip there would
    propagate asymmetrically and break the consensus invariant rather than
    merely add merge noise.
:class:`WorkerCrash`
    Fail-stop at the start of round ``round_idx``; triggers quorum check +
    degrade-and-resync recovery (:mod:`repro.faults.recovery`).
:class:`LinkPartition`
    A directed link that delivers nothing while active; every message on it
    pays the full retry budget before healing within the hop.

Every windowed event is active on rounds ``first_round <= r <= last_round``
(``last_round=None`` means forever).  ``links`` tuples are *directed*
``(src, dst)`` pairs over the original (pre-crash) ranks; ``None`` means
every link of the current topology.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

__all__ = [
    "BitFlip",
    "FaultPlan",
    "LinkJitter",
    "LinkPartition",
    "MessageDrop",
    "QuorumLostError",
    "Straggler",
    "WorkerCrash",
    "load_fault_plan",
]


class QuorumLostError(RuntimeError):
    """Raised when crashes leave fewer survivors than the plan's quorum."""


def _check_window(first_round: int, last_round: int | None) -> None:
    if first_round < 0:
        raise ValueError("first_round must be >= 0")
    if last_round is not None and last_round < first_round:
        raise ValueError("last_round must be >= first_round or None")


def _check_links(links) -> None:
    if links is None:
        return
    for pair in links:
        if len(pair) != 2 or pair[0] == pair[1] or min(pair) < 0:
            raise ValueError(f"links entries must be (src, dst) pairs, got {pair!r}")


def _normalize_links(links):
    if links is None:
        return None
    return tuple((int(src), int(dst)) for src, dst in links)


class _Windowed:
    """Shared by every event with a ``first_round``/``last_round`` window."""

    first_round: int
    last_round: int | None

    def active(self, round_idx: int) -> bool:
        return self.first_round <= round_idx and (
            self.last_round is None or round_idx <= self.last_round
        )


@dataclass(frozen=True)
class LinkJitter(_Windowed):
    """Lognormal transfer-time noise: multiply by ``exp(sigma * z)``."""

    sigma: float
    links: tuple[tuple[int, int], ...] | None = None
    first_round: int = 0
    last_round: int | None = None

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        _check_links(self.links)
        object.__setattr__(self, "links", _normalize_links(self.links))
        _check_window(self.first_round, self.last_round)


@dataclass(frozen=True)
class Straggler(_Windowed):
    """Deterministic slowdown ``factor`` on links touching ``worker``."""

    worker: int
    factor: float
    first_round: int = 0
    last_round: int | None = None

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError("worker must be >= 0")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1 (a time multiplier)")
        _check_window(self.first_round, self.last_round)


@dataclass(frozen=True)
class MessageDrop(_Windowed):
    """Per-message loss with probability ``prob`` on matching links."""

    prob: float
    links: tuple[tuple[int, int], ...] | None = None
    mode: str = "retry"
    first_round: int = 0
    last_round: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.prob <= 1.0:
            raise ValueError("prob must be in (0, 1]")
        if self.mode not in ("retry", "timeout"):
            raise ValueError(f"mode must be 'retry' or 'timeout', got {self.mode!r}")
        _check_links(self.links)
        object.__setattr__(self, "links", _normalize_links(self.links))
        _check_window(self.first_round, self.last_round)


@dataclass(frozen=True)
class BitFlip(_Windowed):
    """Per-bit wire corruption of reduce-hop sign payloads."""

    prob: float
    links: tuple[tuple[int, int], ...] | None = None
    first_round: int = 0
    last_round: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.prob <= 0.5:
            raise ValueError("prob must be in (0, 0.5]")
        _check_links(self.links)
        object.__setattr__(self, "links", _normalize_links(self.links))
        _check_window(self.first_round, self.last_round)


@dataclass(frozen=True)
class WorkerCrash:
    """Fail-stop of ``worker`` effective from the start of ``round_idx``."""

    worker: int
    round_idx: int

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError("worker must be >= 0")
        if self.round_idx < 0:
            raise ValueError("round_idx must be >= 0")


@dataclass(frozen=True)
class LinkPartition(_Windowed):
    """Directed link ``src -> dst`` delivers nothing while active."""

    src: int
    dst: int
    first_round: int = 0
    last_round: int | None = None

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0 or self.src == self.dst:
            raise ValueError("partition needs two distinct non-negative ranks")
        _check_window(self.first_round, self.last_round)


_EVENT_TYPES = {
    "link_jitter": LinkJitter,
    "straggler": Straggler,
    "message_drop": MessageDrop,
    "bit_flip": BitFlip,
    "worker_crash": WorkerCrash,
    "link_partition": LinkPartition,
}
_EVENT_NAMES = {cls: name for name, cls in _EVENT_TYPES.items()}

Event = LinkJitter | Straggler | MessageDrop | BitFlip | WorkerCrash | LinkPartition


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of everything that goes wrong.

    Attributes:
        seed: root of every fault decision.  Decisions are keyed by their
            logical coordinates (round, tag, link, occurrence), never by call
            order, so both executors see identical faults.
        events: the fault events (order is irrelevant; effects on one link
            combine: drop/flip probabilities by inclusion-exclusion, jitter
            sigmas in quadrature, straggler factors multiplicatively).
        retry_timeout_s: simulated seconds a receiver waits before declaring
            one attempt lost (charged once per failed attempt).
        max_attempts: transmission budget per message in ``retry`` mode; a
            message always lands within this many tries, bounding the time
            penalty of any drop rate.
        quorum: minimum surviving fraction of the original workers; crash
            recovery below it raises :class:`QuorumLostError`.
    """

    seed: int = 0
    events: tuple[Event, ...] = ()
    retry_timeout_s: float = 200e-6
    max_attempts: int = 4
    quorum: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if type(event) not in _EVENT_NAMES:
                raise TypeError(f"unknown fault event {type(event).__name__}")
        if self.retry_timeout_s <= 0:
            raise ValueError("retry_timeout_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.quorum <= 1.0:
            raise ValueError("quorum must be in [0, 1]")

    # ------------------------------------------------------------------
    # validation against a concrete cluster size
    # ------------------------------------------------------------------
    def validate(self, num_workers: int | None = None) -> None:
        """Cross-check event coordinates against a worker count."""
        if num_workers is None:
            return
        for event in self.events:
            ranks = []
            if isinstance(event, (Straggler, WorkerCrash)):
                ranks = [event.worker]
            elif isinstance(event, LinkPartition):
                ranks = [event.src, event.dst]
            elif getattr(event, "links", None) is not None:
                ranks = [rank for pair in event.links for rank in pair]
            for rank in ranks:
                if rank >= num_workers:
                    raise ValueError(
                        f"{type(event).__name__} references rank {rank} but "
                        f"the run has {num_workers} workers"
                    )

    def crashes(self) -> tuple[WorkerCrash, ...]:
        return tuple(e for e in self.events if isinstance(e, WorkerCrash))

    # ------------------------------------------------------------------
    # canonical JSON round-trip
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        events = []
        for event in self.events:
            entry: dict = {"kind": _EVENT_NAMES[type(event)]}
            for f in fields(event):
                value = getattr(event, f.name)
                if isinstance(value, tuple):
                    value = [list(pair) for pair in value]
                entry[f.name] = value
            events.append(entry)
        return {
            "seed": self.seed,
            "retry_timeout_s": self.retry_timeout_s,
            "max_attempts": self.max_attempts,
            "quorum": self.quorum,
            "events": events,
        }

    def to_json(self, path: str | None = None) -> str:
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FaultPlan":
        events = []
        for entry in payload.get("events") or []:
            entry = dict(entry)
            kind = entry.pop("kind", None)
            event_cls = _EVENT_TYPES.get(kind)
            if event_cls is None:
                raise ValueError(
                    f"unknown fault event kind {kind!r}; one of "
                    f"{', '.join(sorted(_EVENT_TYPES))}"
                )
            if entry.get("links") is not None:
                entry["links"] = tuple(tuple(pair) for pair in entry["links"])
            events.append(event_cls(**entry))
        return cls(
            seed=payload.get("seed", 0),
            events=tuple(events),
            retry_timeout_s=payload.get("retry_timeout_s", 200e-6),
            max_attempts=payload.get("max_attempts", 4),
            quorum=payload.get("quorum", 0.5),
        )


def load_fault_plan(path: str) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file (the ``--faults`` flag)."""
    with open(path) as handle:
        return FaultPlan.from_json_dict(json.load(handle))
