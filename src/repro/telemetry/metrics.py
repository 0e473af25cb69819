"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the observability layer (§8's
evaluation is latency percentiles and throughput counters).  Everything
here is a pure function of the instrumented simulation: no wall clock,
no unseeded randomness, insertion-independent rendering — two runs of
the same seeded scenario serialise to byte-identical documents.

Histograms use *fixed* bucket boundaries (log-spaced microseconds by
default, the paper's reporting unit) and derive p50/p90/p99 from the
bucket counts by linear interpolation inside the winning bucket, the
same estimator Prometheus applies to ``histogram_quantile``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Default histogram boundaries in microseconds: log-spaced to cover
#: everything from sub-µs DRAM lookups to multi-ms TEE latency spikes.
DEFAULT_BUCKET_BOUNDS_US: tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0,
    128.0, 192.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 10_000.0,
)

#: Boundaries for size distributions (metric names ending in ``bytes``):
#: powers of two from one cache line to past the 16 KiB sweep maximum.
BYTE_BUCKET_BOUNDS: tuple[float, ...] = (
    64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16_384.0, 65_536.0, 1_048_576.0,
)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical, order-independent identity of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_labels(key: tuple[tuple[str, str], ...]) -> str:
    """``{a=1,b=x}`` rendering used by the exporters ('' when empty)."""
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


@dataclass
class Counter:
    """A monotonically increasing count (packets, rejections, bytes)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move both ways (window occupancy, queue depth)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


@dataclass
class Histogram:
    """Fixed-bucket distribution exposing p50/p90/p99/max.

    ``bucket_counts`` has one slot per boundary plus a final +Inf
    overflow slot.  Quantiles interpolate linearly within the winning
    bucket and are clamped to the observed min/max, so they are exact
    at the extremes and deterministic everywhere.
    """

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS_US
    bucket_counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min_value: float = float("inf")
    max_value: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("bucket bounds must be a sorted non-empty sequence")
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic bucket-interpolated quantile in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.max_value
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(fraction, 0.0)
                return min(max(estimate, self.min_value), self.max_value)
            cumulative += bucket_count
        return self.max_value

    def to_dict(self) -> dict[str, Any]:
        """Stable JSON-ready summary (quantiles rounded to fixed precision)."""
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": round(self.min_value, 6) if self.count else 0.0,
            "max": round(self.max_value, 6) if self.count else 0.0,
            "p50": round(self.quantile(0.50), 6),
            "p90": round(self.quantile(0.90), 6),
            "p99": round(self.quantile(0.99), 6),
            "buckets": {
                f"le_{bound:g}": self.bucket_counts[i]
                for i, bound in enumerate(self.bounds)
                if self.bucket_counts[i]
            }
            | ({"le_inf": self.bucket_counts[-1]} if self.bucket_counts[-1] else {}),
        }


class MetricsRegistry:
    """Every metric of one simulation, keyed by (kind, name, labels).

    One metric *name* owns one kind: registering ``roce.tx`` as both a
    counter and a histogram is a programming error and raises — the
    exported document would otherwise be ambiguous.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._kinds: dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: dict[str, Any], factory):
        registered = self._kinds.setdefault(name, kind)
        if registered != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {registered}, "
                f"cannot reuse it as a {kind}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS_US,
        **labels: Any,
    ) -> Histogram:
        return self._get(
            "histogram", name, labels,
            lambda n, key: Histogram(n, key, bounds=bounds),
        )

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[tuple[str, tuple[tuple[str, str], ...], Any]]:
        """(name, label_key, metric) sorted for stable rendering."""
        for (name, key), metric in sorted(
            self._metrics.items(), key=lambda item: (item[0][0], item[0][1])
        ):
            yield name, key, metric

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Nested, sorted, JSON-ready view of every metric."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, Any] = {}
        for name, key, metric in self:
            series = f"{name}{format_labels(key)}"
            if isinstance(metric, Counter):
                counters[series] = round(metric.value, 6)
            elif isinstance(metric, Gauge):
                gauges[series] = round(metric.value, 6)
            else:
                histograms[series] = metric.to_dict()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
