"""Counters, gauges and histograms with Prometheus text exposition.

The registry is what the service's ``GET /metrics`` endpoint serves and what
replaced the server's private ad-hoc counters: every number an operator can
scrape has one definition here, with a name, a help string and (optionally)
labels, instead of being a bare attribute on a stats dataclass.

Design notes:

* **Fixed histogram buckets.**  A histogram's bucket boundaries are part of
  its identity (Prometheus clients aggregate ``_bucket`` series across
  scrapes), so they are set at registration time and never change.  The
  default boundaries suit request latencies from sub-millisecond cache hits
  to minute-long cold routes.
* **Exact recent percentiles.**  Bucketed quantiles are coarse; operators
  reading the JSON ``/stats`` endpoint got exact nearest-rank p50/p99 over
  the most recent requests before this module existed and still do: every
  histogram keeps a bounded deque of recent observations for
  :meth:`Histogram.percentile`.  The Prometheus side exposes the buckets.
* **Labels are explicit.**  A metric family declares its label names at
  registration; children are materialised on first use via
  ``family.labels(endpoint="route")``.  Unlabelled families act as their own
  single child, so ``registry.counter("x").inc()`` just works.

Everything is guarded by one registry-wide lock; these are bookkeeping
operations on a server request path, not a hot construction loop.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "peak_rss_mb",
]

#: Request-latency bucket upper bounds, seconds (``+Inf`` is implicit).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Exact-percentile window per histogram child (recent observations kept).
PERCENTILE_WINDOW = 4096


def _nearest_rank(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a sorted sample list (0.0 when empty)."""
    if not samples:
        return 0.0
    rank = min(len(samples) - 1, max(0, int(round(fraction * (len(samples) - 1)))))
    return samples[rank]


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render bare, floats repr-exact."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_le(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = ['%s="%s"' % (k, _escape_label(v)) for k, v in labels]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


class Counter:
    """A monotonically increasing count."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; inc(%r)" % amount)
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (or be computed at scrape time)."""

    def __init__(self, lock: threading.Lock, callback=None) -> None:
        self._lock = lock
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value


class Histogram:
    """Fixed-bucket histogram plus an exact recent-percentile window."""

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        self._lock = lock
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._recent: deque = deque(maxlen=PERCENTILE_WINDOW)

    def observe(self, value: float) -> None:
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1
            self._recent.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at ``+Inf``."""
        with self._lock:
            pairs = []
            running = 0
            for bound, count in zip(self.bounds, self._bucket_counts):
                running += count
                pairs.append((bound, running))
            pairs.append((float("inf"), running + self._bucket_counts[-1]))
            return pairs

    def percentile(self, fraction: float) -> float:
        """Exact nearest-rank percentile over the recent-observation window."""
        with self._lock:
            samples = sorted(self._recent)
        return _nearest_rank(samples, fraction)

    def mean_recent(self) -> float:
        """Mean of the recent-observation window (0.0 when empty)."""
        with self._lock:
            if not self._recent:
                return 0.0
            return sum(self._recent) / len(self._recent)

    def recent_count(self) -> int:
        return len(self._recent)


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label-name set and lazy children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        buckets: Optional[Sequence[float]] = None,
        callback=None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._buckets = buckets
        self._callback = callback
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock, callback=self._callback)
        return Histogram(self._lock, self._buckets or DEFAULT_LATENCY_BUCKETS)

    def labels(self, **labels: str):
        """The child metric for one label-value assignment (created lazily)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                "metric %s takes labels %s, got %s"
                % (self.name, sorted(self.labelnames), sorted(labels))
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
        return child

    def children(self) -> List[Tuple[Tuple[Tuple[str, str], ...], Any]]:
        """``(((label, value), ...), metric)`` pairs in insertion order."""
        with self._lock:
            return [
                (tuple(zip(self.labelnames, key)), child)
                for key, child in self._children.items()
            ]

    # Unlabelled families proxy their single child so callers can treat the
    # family as the metric: registry.counter("x").inc().
    def _single(self):
        if self.labelnames:
            raise ValueError(
                "metric %s is labelled (%s); use .labels(...)"
                % (self.name, ", ".join(self.labelnames))
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._single().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._single().dec(amount)

    def set(self, value: float) -> None:
        self._single().set(value)

    def observe(self, value: float) -> None:
        self._single().observe(value)

    @property
    def value(self) -> float:
        return self._single().value


class MetricsRegistry:
    """A named collection of metric families with Prometheus rendering."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, MetricFamily]" = {}

    def _register(self, family: MetricFamily) -> MetricFamily:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if existing.kind != family.kind:
                    raise ValueError(
                        "metric %s already registered as a %s"
                        % (family.name, existing.kind)
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(
            MetricFamily(name, "counter", help_text, labelnames, self._lock)
        )

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        callback=None,
    ) -> MetricFamily:
        return self._register(
            MetricFamily(
                name, "gauge", help_text, labelnames, self._lock, callback=callback
            )
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(
            MetricFamily(
                name, "histogram", help_text, labelnames, self._lock, buckets=buckets
            )
        )

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in sorted(self.families(), key=lambda f: f.name):
            if family.help:
                lines.append("# HELP %s %s" % (family.name, family.help))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            for labels, child in family.children():
                if family.kind == "histogram":
                    for bound, cumulative in child.cumulative_buckets():
                        suffix = _label_suffix(
                            labels, 'le="%s"' % _format_le(bound)
                        )
                        lines.append(
                            "%s_bucket%s %d" % (family.name, suffix, cumulative)
                        )
                    suffix = _label_suffix(labels)
                    lines.append(
                        "%s_sum%s %s"
                        % (family.name, suffix, _format_value(child.sum))
                    )
                    lines.append("%s_count%s %d" % (family.name, suffix, child.count))
                else:
                    lines.append(
                        "%s%s %s"
                        % (family.name, _label_suffix(labels), _format_value(child.value))
                    )
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, Dict[str, float]]:
    """Parse Prometheus text format into ``{metric: {labelstring: value}}``.

    A deliberately small parser for tests and CI assertions -- it understands
    exactly what :meth:`MetricsRegistry.render` emits (comments, bare and
    labelled samples), raising ``ValueError`` on anything malformed.
    """
    samples: Dict[str, Dict[str, float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            name_part, value_part = line.rsplit(" ", 1)
        except ValueError:
            raise ValueError("malformed exposition line %d: %r" % (lineno, line))
        if "{" in name_part:
            name, _, rest = name_part.partition("{")
            if not rest.endswith("}"):
                raise ValueError("malformed labels on line %d: %r" % (lineno, line))
            labelstring = rest[:-1]
        else:
            name, labelstring = name_part, ""
        if not name or " " in name:
            raise ValueError("malformed metric name on line %d: %r" % (lineno, line))
        if value_part == "+Inf":
            value = float("inf")
        else:
            value = float(value_part)  # raises ValueError on malformed values
        samples.setdefault(name, {})[labelstring] = value
    return samples


def iter_samples(text: str) -> Iterable[Tuple[str, str, float]]:
    """``(name, labelstring, value)`` triples of an exposition document."""
    for name, by_labels in parse_exposition(text).items():
        for labelstring, value in by_labels.items():
            yield name, labelstring, value


def peak_rss_mb() -> float:
    """Peak resident set size of the current process, in megabytes.

    ``ru_maxrss`` is a high-water mark over the life of the process
    (kilobytes on Linux, bytes on macOS), so a reading taken after a run is
    an upper bound that includes everything the process did before.  The
    runner, the bench harness and the service all report it through this one
    function.  Returns 0.0 on platforms without ``resource`` (Windows)
    rather than raising, so callers can record the value unconditionally.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return 0.0
    rss = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes on macOS
        return rss / (1024.0 * 1024.0)
    return rss / 1024.0  # kilobytes on Linux/BSD
