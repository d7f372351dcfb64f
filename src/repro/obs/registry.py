"""Metric primitives and the registry that owns them.

One process-wide (or per-cluster) :class:`MetricsRegistry` is the home
of a run's counts: ``TrafficMeter``, ``Enclave.counters`` and the serve
and chaos reports read theirs back from it rather than keeping tallies
of their own.  Every layer registers named, labelled counters, gauges
and fixed-bucket histograms in the same place, and the whole state can
be snapshotted to plain JSON, restored, and merged across nodes -- the
aggregation step a multi-process deployment needs to produce one
``metrics.json`` per run.

Design constraints (why this is not a Prometheus client):

- **dependency-free** -- nothing outside the standard library;
- **simulation-friendly** -- no hidden wall-clock reads, no background
  threads; values change only when instrumented code says so;
- **mergeable** -- counters and histograms add, gauges keep the last
  value and the running max (the semantics every consumer here wants:
  residency peaks, overcommit peaks).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
]

LabelsKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelsKey]

#: Power-of-4 byte buckets: 64 B .. 1 GiB, a useful spread for payloads.
DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = tuple(float(4**i * 64) for i in range(13))

#: Power-of-4 count buckets: 1 .. 16M, for page faults / item counts.
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = tuple(float(4**i) for i in range(13))


def _labels_key(labels: Mapping[str, object]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (work done, bytes moved)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Last-set value plus its running maximum (residency, ratios)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "max")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.max = max(self.max, self.value)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "max": self.max,
        }

    def merge(self, other: "Gauge") -> None:
        # Across nodes "last value" is ill-defined; the peak is what the
        # EPC / residency consumers read, so keep max-of-max and the
        # larger last value.
        self.value = max(self.value, other.value)
        self.max = max(self.max, other.max)


class Histogram:
    """Fixed-bucket histogram: cumulative-free, one count per bucket.

    ``buckets`` are strictly increasing upper edges; an observation lands
    in the first bucket whose edge is >= the value, or in the overflow
    slot past the last edge.  Sum and count ride along for means.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelsKey, buckets: Sequence[float]):
        edges = [float(b) for b in buckets]
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, float(value))] += 1
        self.sum += float(value)
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket edges differ"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for every metric of one run/node/cluster."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Metric] = {}

    @classmethod
    def ensure(cls, metrics: Optional["MetricsRegistry"]) -> "MetricsRegistry":
        """``metrics`` itself, or a fresh registry when the caller has none."""
        return cls() if metrics is None else metrics

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, _labels_key(labels))

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, _labels_key(labels))

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] = DEFAULT_COUNT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[1], buckets)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is already registered as a {metric.kind}")
        return metric

    def _get_or_create(self, cls, name: str, labels: LabelsKey):
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"{name!r} is already registered as a {metric.kind}")
        return metric

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: object) -> Optional[Metric]:
        return self._metrics.get((name, _labels_key(labels)))

    def value(self, name: str, **labels: object) -> float:
        """Value of one counter/gauge, 0.0 when it never fired."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0.0

    def collect(self, name: str) -> List[Metric]:
        """All label-sets registered under ``name``."""
        return [m for (n, _), m in self._metrics.items() if n == name]

    def total(self, name: str) -> float:
        """Sum of a counter over all its label-sets."""
        return sum(m.value for m in self.collect(name) if isinstance(m, Counter))

    # ------------------------------------------------------------------ #
    # Snapshot / restore / merge
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Plain-JSON state: counters, gauges, histograms."""
        snap: dict = {"counters": [], "gauges": [], "histograms": []}
        for metric in self._metrics.values():
            snap[metric.kind + "s"].append(metric.to_dict())
        return snap

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "MetricsRegistry":
        registry = cls()
        for entry in snap.get("counters", ()):
            registry.counter(entry["name"], **entry["labels"]).value = float(entry["value"])
        for entry in snap.get("gauges", ()):
            gauge = registry.gauge(entry["name"], **entry["labels"])
            gauge.value = float(entry["value"])
            gauge.max = float(entry.get("max", entry["value"]))
        for entry in snap.get("histograms", ()):
            hist = registry.histogram(
                entry["name"], buckets=entry["buckets"], **entry["labels"]
            )
            hist.counts = [int(c) for c in entry["counts"]]
            hist.sum = float(entry["sum"])
            hist.count = int(entry["count"])
        return registry

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (cross-node aggregation)."""
        for (name, labels), metric in other._metrics.items():
            if isinstance(metric, Histogram):
                mine = self.histogram(name, buckets=metric.buckets, **dict(labels))
            elif isinstance(metric, Gauge):
                mine = self.gauge(name, **dict(labels))
            else:
                mine = self.counter(name, **dict(labels))
            mine.merge(metric)
        return self
