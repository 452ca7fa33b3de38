"""In-process simulated cluster with explicit message passing.

The cluster is the stand-in for the paper's 32-node testbed.  Worker code
calls :meth:`Cluster.send` / :meth:`Cluster.recv` exactly where a PyTorch
implementation would call ``dist.send`` / ``dist.recv``; the cluster

- enforces that messages only travel along topology edges,
- counts every byte per link and in total (Figure 4b's x-axis), and
- groups transfers into synchronous *steps* so the timing model can charge
  the makespan of each step (concurrent transfers overlap, like a real
  all-reduce ring stage).
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm.bits import PackedBits
from repro.comm.timing import CostModel, Phase, TimeLine
from repro.comm.topology import Topology
from repro.obs.tracer import NULL_OBS, Observability

__all__ = ["Cluster", "Link", "Message", "SizedPayload", "Worker", "payload_nbytes"]


@dataclass(frozen=True)
class SizedPayload:
    """A payload with an explicitly modelled wire size.

    Used when the in-memory representation is wider than the modelled wire
    format — e.g. an integer array of partial sign sums that a real
    implementation would pack at ``ceil(log2(m+1)) + 1`` bits per element
    (Section 3.1's bit-length expansion), or the length of their Elias-gamma
    code.
    """

    value: Any
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")


def payload_nbytes(payload: Any) -> int:
    """Wire size in bytes of a message payload.

    numpy arrays are charged their raw buffer size, :class:`PackedBits` its
    packed wire size ``ceil(length / 8)`` (the word-aligned in-memory tail
    padding is *not* charged), :class:`SizedPayload` (and any object
    exposing an integer ``nbytes``) its declared size, and containers the
    sum of their items.  Scalars are charged eight bytes (a double / int64
    on the wire).
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, PackedBits):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(value) for value in payload.values())
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    raise TypeError(f"cannot size payload of type {type(payload)!r}")


@dataclass(frozen=True)
class Message:
    """A single point-to-point transfer."""

    src: int
    dst: int
    payload: Any
    nbytes: int
    tag: str = ""


@dataclass
class Link:
    """Per-edge traffic accounting."""

    src: int
    dst: int
    bytes_sent: int = 0
    messages_sent: int = 0


@dataclass
class Worker:
    """A worker handle: a rank plus an inbound mailbox.

    Mailboxes are FIFO per ``(src, tag)`` pair, which is how point-to-point
    ordering behaves in MPI/NCCL-style transports.
    """

    rank: int
    mailbox: dict = field(default_factory=lambda: defaultdict(deque))

    def deliver(self, message: Message) -> None:
        self.mailbox[(message.src, message.tag)].append(message)

    def take(self, src: int, tag: str = "") -> Message:
        """Pop the oldest message from ``(src, tag)``, pruning empty queues.

        Schedules use per-step tags (``"m-rs:0"``, ``"m-seg{start}-rs"``,
        ...), so a queue that is not dropped once drained — or worse, one
        *created* by a failed probe — leaks a dict entry per (src, tag) pair
        forever.  Misses therefore never insert, and the queue is deleted
        the moment its last message is taken, keeping the mailbox bounded by
        the number of in-flight messages.
        """
        key = (src, tag)
        queue = self.mailbox.get(key)
        if not queue:
            if queue is not None:
                del self.mailbox[key]
            raise LookupError(
                f"worker {self.rank} has no pending message from {src} "
                f"with tag {tag!r}"
            )
        message = queue.popleft()
        if not queue:
            del self.mailbox[key]
        return message

    def discard(self, tag: str | None = None, src: int | None = None) -> int:
        """Drop pending messages matching ``tag``/``src`` (None = any).

        The cleanup half of timeout recovery: a round aborted after a lost
        message leaves its delivered-but-never-taken companions queued, and
        those must not survive into the next round's ``take`` calls (or trip
        ``assert_drained``).  Returns the number of messages discarded.
        """
        removed = 0
        for key in list(self.mailbox):
            key_src, key_tag = key
            if tag is not None and key_tag != tag:
                continue
            if src is not None and key_src != src:
                continue
            removed += len(self.mailbox[key])
            del self.mailbox[key]
        return removed

    def pending(self) -> int:
        return sum(len(queue) for queue in self.mailbox.values())


class Cluster:
    """A synchronous simulated cluster over a :class:`Topology`.

    Args:
        topology: the communication graph; sends off-graph raise.
        cost_model: converts bytes/flops into simulated seconds.  When
            ``None`` a default :class:`CostModel` is used.
        strict: when True (default), :meth:`recv` with no matching message
            raises immediately instead of deadlocking silently.
        obs: an :class:`~repro.obs.tracer.Observability` bundle.  Defaults to
            the shared disabled bundle; attach a tracing one to get per-step
            spans and wire metrics out of the same accounting calls.
    """

    def __init__(
        self,
        topology: Topology,
        cost_model: CostModel | None = None,
        strict: bool = True,
        obs: Observability | None = None,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.strict = strict
        self.workers = [Worker(rank) for rank in range(topology.num_workers)]
        self.links: dict[tuple[int, int], Link] = {
            (u, v): Link(u, v) for u, v in topology.edges
        }
        self.timeline = TimeLine()
        self.total_bytes = 0
        self.total_messages = 0
        self._step_bytes: dict[tuple[int, int], int] = {}
        self._step_messages = 0
        self._in_step = False
        self.obs = NULL_OBS
        self._obs_on = False
        # wire-metric handles, resolved lazily against one registry
        self._wire_registry = None
        self._link_counters: dict[tuple[int, int], Any] = {}
        self._step_handles: tuple | None = None
        self.faults = None
        if obs is not None:
            self.attach_observability(obs)

    def attach_observability(self, obs: Observability) -> None:
        """Attach (or swap) the observability bundle.

        The enabled flag is cached so the per-charge hot path pays a single
        attribute check when instrumentation is off.
        """
        self.obs = obs
        self._obs_on = obs.enabled

    def attach_faults(self, injector) -> None:
        """Attach a :class:`~repro.faults.inject.FaultInjector` (or None).

        With no injector attached every hook below is one ``is None`` check;
        fault-free runs stay bit-identical to a build without this feature.
        """
        self.faults = injector
        if injector is not None:
            injector.bind(self)

    @property
    def num_workers(self) -> int:
        return self.topology.num_workers

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, tag: str = "") -> Message:
        """Send ``payload`` from ``src`` to ``dst`` along a topology edge."""
        if not self.topology.has_edge(src, dst):
            raise ValueError(
                f"no link {src} -> {dst} in {self.topology.name} topology"
            )
        nbytes = payload_nbytes(payload)
        message = Message(src=src, dst=dst, payload=payload, nbytes=nbytes, tag=tag)
        wire_bytes = nbytes
        deliver = True
        if self.faults is not None:
            # Retry-mode losses retransmit: the extra attempts' bytes travel
            # the wire (and count everywhere bytes count); the message still
            # counts once.  Timeout-mode losses are never delivered.
            extra, deliver = self.faults.on_message(tag, src, dst, nbytes)
            wire_bytes += extra
        if deliver:
            self.workers[dst].deliver(message)
        link = self.links[(src, dst)]
        link.bytes_sent += wire_bytes
        link.messages_sent += 1
        self.total_bytes += wire_bytes
        self.total_messages += 1
        if self._in_step:
            key = (src, dst)
            self._step_bytes[key] = self._step_bytes.get(key, 0) + wire_bytes
            self._step_messages += 1
        return message

    def recv(self, dst: int, src: int, tag: str = "") -> Any:
        """Receive the oldest pending message from ``src`` at ``dst``.

        In strict mode a missing message raises; otherwise it yields None.
        """
        try:
            return self.workers[dst].take(src, tag).payload
        except LookupError:
            if self.strict:
                raise
            return None

    def exchange(
        self,
        transfers: Sequence[tuple[int, int, Any]],
        tag: str = "",
    ) -> float:
        """Run one whole synchronous step's transfers in a single call.

        The bulk equivalent of ``begin_step`` + per-message ``send``/``recv``
        + ``end_step`` for lockstep engines whose payloads live stacked in a
        lane matrix: data moves inside the caller's buffers, and this call
        performs the *accounting* for every transfer in one pass — per-link
        and global byte/message counters plus the step's makespan charged to
        the timeline, identical to what the per-message path would record.
        Mailboxes are not involved.

        Each transfer is ``(src, dst, payload)``.  A plain ``int`` payload is
        a pre-computed wire size in bytes (the lane-stacked case, where no
        per-message object ever materializes); anything else is sized via
        :func:`payload_nbytes`.

        Returns the step's elapsed (makespan) seconds, like ``end_step``.
        """
        if self._in_step:
            raise RuntimeError("cannot exchange inside an open step")
        faults = self.faults
        if faults is not None:
            faults.begin_step()
        step_bytes: dict[tuple[int, int], int] = {}
        links = self.links
        total = 0
        count = 0
        for src, dst, payload in transfers:
            key = (src, dst)
            link = links.get(key)
            if link is None:
                raise ValueError(
                    f"no link {src} -> {dst} in {self.topology.name} topology"
                )
            nbytes = payload if type(payload) is int else payload_nbytes(payload)
            if nbytes < 0:
                raise ValueError("nbytes must be non-negative")
            if faults is not None:
                # Same decision the per-message path makes; the lockstep
                # engine has no mailboxes, so only the byte/time consequences
                # apply (terminal timeout mode is a scalar-engine diagnostic).
                extra, _ = faults.on_message(tag, src, dst, nbytes)
                nbytes += extra
            link.bytes_sent += nbytes
            link.messages_sent += 1
            total += nbytes
            count += 1
            step_bytes[key] = step_bytes.get(key, 0) + nbytes
        self.total_bytes += total
        self.total_messages += count
        if not step_bytes:
            return 0.0
        if faults is not None:
            elapsed = faults.finish_step(tag, step_bytes)
        else:
            elapsed = max(
                self._link_transfer_time(link, nbytes)
                for link, nbytes in step_bytes.items()
            )
        self.timeline.add(Phase.COMMUNICATION, elapsed)
        if self._obs_on:
            self._record_step_obs(tag, step_bytes, count, elapsed)
        return elapsed

    # ------------------------------------------------------------------
    # synchronous stepping for the timing model
    # ------------------------------------------------------------------
    def begin_step(self) -> None:
        """Open a synchronous step: all sends until ``end_step`` overlap."""
        if self._in_step:
            raise RuntimeError("step already open")
        self._in_step = True
        self._step_bytes = {}
        self._step_messages = 0
        if self.faults is not None:
            self.faults.begin_step()

    def end_step(self, tag: str = "") -> float:
        """Close the step and charge its makespan to the timeline.

        The step time is the slowest link's ``latency + bytes / bandwidth``;
        all transfers inside one step are concurrent, which models one stage
        of a ring (every worker sends to its successor simultaneously).
        """
        if not self._in_step:
            raise RuntimeError("no step open")
        self._in_step = False
        if not self._step_bytes:
            return 0.0
        if self.faults is not None:
            elapsed = self.faults.finish_step(tag, self._step_bytes)
        else:
            elapsed = max(
                self._link_transfer_time(link, nbytes)
                for link, nbytes in self._step_bytes.items()
            )
        self.timeline.add(Phase.COMMUNICATION, elapsed)
        if self._obs_on:
            self._record_step_obs(
                tag, self._step_bytes, self._step_messages, elapsed
            )
        return elapsed

    def abort_step(self, tag: str = "") -> dict[tuple[int, int], int]:
        """Close an open step without charging its makespan.

        The timeout-recovery half of :meth:`end_step`: when a message is
        lost terminally mid-step, the round is void — charging the partial
        step's makespan (or letting its byte map leak into the *next*
        ``end_step``) would corrupt the timeline.  Wire counters keep the
        attempted bytes (they did travel); only the step state is cleared.
        Returns the aborted step's per-link byte map for diagnostics; pair
        with :meth:`discard_pending` to drop the step's queued messages.
        """
        if not self._in_step:
            raise RuntimeError("no step open")
        self._in_step = False
        aborted = self._step_bytes
        self._step_bytes = {}
        self._step_messages = 0
        if self._obs_on:
            self.obs.tracer.instant(
                "wire.step_aborted", tag=tag, bytes=sum(aborted.values())
            )
            if self.obs.metrics is not None:
                self.obs.metrics.counter("wire.steps_aborted").inc()
        return aborted

    def discard_pending(
        self, tag: str | None = None, src: int | None = None
    ) -> int:
        """Drop queued messages on every worker (see :meth:`Worker.discard`).

        Returns the total number discarded; after an aborted round this puts
        :meth:`assert_drained` back into force.
        """
        dropped = sum(
            worker.discard(tag=tag, src=src) for worker in self.workers
        )
        if dropped and self._obs_on and self.obs.metrics is not None:
            self.obs.metrics.counter("wire.discarded_messages").inc(dropped)
        return dropped

    def reconfigure(self, topology: Topology, drop_pending: bool = False) -> None:
        """Swap the topology in place — crash recovery's cluster surgery.

        Fresh workers and per-link counters are installed for the new graph;
        cumulative totals (``total_bytes``, ``total_messages``, the
        timeline) survive, so a run's cost accounting spans the recovery.
        Pending mailbox messages must be drained first or explicitly dropped
        with ``drop_pending=True`` (a crashed round's survivors hold
        messages that will never be taken).
        """
        if self._in_step:
            raise RuntimeError("cannot reconfigure inside an open step")
        pending = sum(worker.pending() for worker in self.workers)
        if pending and not drop_pending:
            raise RuntimeError(
                f"{pending} undelivered messages; drain them or pass "
                "drop_pending=True"
            )
        topology.validate()
        self.topology = topology
        self.workers = [Worker(rank) for rank in range(topology.num_workers)]
        self.links = {(u, v): Link(u, v) for u, v in topology.edges}
        self._step_bytes = {}
        self._step_messages = 0

    def _record_step_obs(
        self,
        tag: str,
        step_bytes: dict[tuple[int, int], int],
        messages: int,
        elapsed: float,
    ) -> None:
        """Mirror one synchronous step into the tracer and metrics.

        Both the per-message (``begin_step``/``end_step``) and the bulk
        (:meth:`exchange`) paths funnel through here with identical
        ``step_bytes`` dicts, so the scalar and batched engines emit
        identical wire metrics by construction.
        """
        obs = self.obs
        total = sum(step_bytes.values())
        obs.tracer.record_step(
            "hop",
            Phase.COMMUNICATION,
            elapsed,
            tag=tag,
            bytes=total,
            messages=messages,
            links=len(step_bytes),
        )
        metrics = obs.metrics
        if metrics is None:
            return
        if metrics is not self._wire_registry:
            self._wire_registry = metrics
            self._link_counters = {}
            self._step_handles = None
        # Handles are created on first use, links before the step totals,
        # exactly when a per-step get-or-create would create them, so the
        # registry's insertion order (and every snapshot) ignores the cache.
        link_counters = self._link_counters
        for key, nbytes in step_bytes.items():
            counter = link_counters.get(key)
            if counter is None:
                counter = link_counters[key] = metrics.counter(
                    "wire.link_bytes", link=f"{key[0]}->{key[1]}"
                )
            counter.inc(nbytes)
        handles = self._step_handles
        if handles is None:
            handles = self._step_handles = (
                metrics.counter("wire.step_bytes"),
                metrics.counter("wire.step_messages"),
                metrics.counter("wire.steps"),
                metrics.histogram("wire.step_makespan_s"),
                metrics.gauge("cluster.mailbox_depth"),
            )
        step_bytes_total, step_messages, steps, makespan, mailbox = handles
        step_bytes_total.inc(total)
        step_messages.inc(messages)
        steps.inc()
        makespan.observe(elapsed)
        mailbox.set(sum(worker.pending() for worker in self.workers))

    def _link_transfer_time(self, link: tuple[int, int], nbytes: int) -> float:
        model = self.cost_model
        return model.latency_s + nbytes / model.bandwidth_Bps

    def charge(self, phase: Phase, seconds: float) -> None:
        """Charge non-communication time (computation / compression)."""
        self.timeline.add(phase, seconds)
        if self._obs_on:
            self.obs.tracer.advance(phase, seconds)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def assert_drained(self) -> None:
        """Raise if any worker still has undelivered messages (leak check)."""
        leftover = {w.rank: w.pending() for w in self.workers if w.pending()}
        if leftover:
            raise AssertionError(f"undrained mailboxes: {leftover}")

    def reset_accounting(self) -> None:
        """Zero traffic counters and the timeline, keeping mailboxes intact.

        Refuses to run inside an open step: resetting mid-step would charge
        the step's makespan from a half-cleared byte map, silently corrupting
        the timeline.  Close the step (or never open one) first.
        """
        if self._in_step:
            raise RuntimeError("cannot reset accounting inside an open step")
        for link in self.links.values():
            link.bytes_sent = 0
            link.messages_sent = 0
        self.total_bytes = 0
        self.total_messages = 0
        self._step_bytes = {}
        self._step_messages = 0
        self.timeline = TimeLine()
