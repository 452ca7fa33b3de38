"""Counters, gauges and histograms for wire and algorithm statistics.

A deliberately small registry in the Prometheus idiom: metrics are created
on first use, identified by ``(name, sorted labels)``, and snapshot to plain
dicts for the JSONL exporter and the text summary.  Everything is in-process
and synchronous — the simulation is single-threaded — so there is no
locking, no global state, and construction costs one dict insert.

Conventions used by the built-in instrumentation:

- ``wire.link_bytes{link="0->1"}`` — per-link bytes (Figure 4b's axis).
- ``wire.step_bytes`` / ``wire.step_messages`` — totals over synchronous
  steps.
- ``wire.step_makespan_s`` — histogram of per-step makespans.
- ``cluster.mailbox_depth`` — pending messages after each step.
- ``marsit.sign_agreement`` — consensus signs vs. the full-precision mean
  sign (the Figure 1b matching-rate statistic, measured live).
- ``marsit.comp_norm`` — mean per-worker compensation L2 norm.
- ``marsit.pass_helper_share`` — share of the compensation pass's blocks
  the helper thread ran (0 without a helper; near 0 on a host too busy to
  give it a core).
- ``marsit.transient_draws`` / ``marsit.merged_bits`` — how often the
  ``⊙`` merge fell through to the transient vector.
- ``marsit.bits_per_element`` — wire width per round (Figure 3's Bits).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Log-spaced seconds buckets covering link latency (~25us) through seconds.
DEFAULT_TIME_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** exponent for exponent in range(-7, 2)
)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _qualified(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Last-value metric that also keeps its trajectory."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "series")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = math.nan
        self.series: list[float] = []

    def set(self, value: float) -> None:
        self.value = float(value)
        self.series.append(self.value)

    def mean(self) -> float:
        if not self.series:
            return math.nan
        return sum(self.series) / len(self.series)

    def snapshot(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "mean": self.mean(),
            "samples": len(self.series),
        }


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "counts", "count", "total",
                 "min", "max")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        bounds: Sequence[float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_TIME_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        slot = 0
        for bound in self.bounds:
            if value <= bound:
                break
            slot += 1
        self.counts[slot] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean(),
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Get-or-create store of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._metrics: dict[
            tuple[str, tuple[tuple[str, str], ...]], Any
        ] = {}

    def _get(self, cls: type, name: str, labels: dict[str, Any], **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        bounds = kwargs.get("bounds")
        if bounds is not None and tuple(bounds) != metric.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{metric.bounds}, not {tuple(bounds)}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: Sequence[float] | None = None, **labels: Any
    ) -> Histogram:
        """Get or create; ``bounds=None`` accepts whatever is registered."""
        return self._get(Histogram, name, labels, bounds=bounds)

    def __iter__(self) -> Iterable[Any]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: Any):
        """Look up an existing metric, or None."""
        return self._metrics.get((name, _label_key(labels)))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Qualified name -> ``{"kind": ..., **metric snapshot}``."""
        out: dict[str, dict[str, Any]] = {}
        for metric in self._metrics.values():
            entry = {"kind": metric.kind}
            entry.update(metric.snapshot())
            out[_qualified(metric.name, metric.labels)] = entry
        return out

    def total(self, name: str) -> float:
        """Sum a counter's value across all of its label sets."""
        return sum(
            metric.value
            for (metric_name, _), metric in self._metrics.items()
            if metric_name == name and isinstance(metric, Counter)
        )
