"""Process-wide metrics: counters, gauges and latency histograms.

A `MetricsRegistry` is a thread-safe, label-aware instrument store that
the serving layer (`XMLDatabase`, `QueryCache`, `repro.diskdb`,
`search_batch`) publishes into: query latency, per-level join counts,
cache hit ratios, bytes read/written, batch queue depth.  Two read
paths:

* `snapshot()` -- a plain nested dict (counters / gauges / histograms
  with p50/p95/p99), serialized by the ``repro trace`` and
  ``repro metrics --json`` CLI verbs;
* `render_prometheus()` -- Prometheus text exposition format, ready to
  serve from a ``/metrics`` endpoint.

Histograms combine fixed buckets (cheap, mergeable, Prometheus-shaped)
with a bounded reservoir sample for percentile estimation; both updates
are O(log buckets) / O(1) per observation.

The module-level default registry (`get_registry`) is what everything
publishes into unless handed an explicit registry, so one snapshot sees
the whole process.
"""

from __future__ import annotations

import bisect
import random
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Exponential-ish latency ladder in milliseconds: microseconds through
# tens of seconds, the range a query or a batch can realistically span.
DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
                   500.0, 1000.0, 5000.0, 30000.0)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: LabelPairs) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down; optionally computed on read.

    `set_fn` installs a zero-argument callable evaluated at snapshot
    time -- the hook behind derived gauges like cache hit ratio.
    """

    __slots__ = ("_value", "_fn", "_lock")

    def __init__(self):
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_fn(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    def clear_fn(self) -> None:
        """Detach a derived-value hook (back to the stored value)."""
        self._fn = None

    def track(self):
        """Context manager: +1 on entry, -1 on exit (queue depths,
        in-flight request gauges -- exception-safe by construction)."""
        return _GaugeTrack(self)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value


class _GaugeTrack:
    __slots__ = ("_gauge",)

    def __init__(self, gauge: Gauge):
        self._gauge = gauge

    def __enter__(self):
        self._gauge.inc()
        return self._gauge

    def __exit__(self, *exc_info):
        self._gauge.dec()
        return False


class Histogram:
    """Fixed buckets + a bounded reservoir for percentile estimation.

    Buckets give the Prometheus-shaped cumulative counts; the reservoir
    (uniform sample of all observations, deterministic seed so repeated
    runs snapshot identically) supports `percentile` without retaining
    every sample.

    Accuracy contract: percentiles are **rank-accurate to within +/-7
    percentile points**.  The reservoir is a uniform sample, so the
    value reported for the p-th percentile is a true sample value whose
    actual rank lies in [p-7, p+7] with high probability -- the
    binomial rank error of a 512-observation sample is
    sqrt(p(1-p)/512) <= 2.2 points (one sigma), and 7 points is the
    3-sigma bound.  This holds for any shape (bimodal, heavy-tailed);
    what it does NOT promise is value-accuracy -- where the
    distribution is steep (a heavy tail's p99), a few points of rank
    can be a large factor in value.  Consumers needing tail *values*
    should read the bucket counts instead.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total",
                 "_reservoir", "_reservoir_size", "_rng", "_lock",
                 "_exemplars")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 reservoir_size: int = 512, seed: int = 0x5EED):
        self.bounds = tuple(sorted(float(b) for b in buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +inf bucket
        self.count = 0
        self.total = 0.0
        self._reservoir: List[float] = []
        self._reservoir_size = int(reservoir_size)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        # bucket index -> (value, trace_id): the most recent exemplar
        # that landed in the bucket, linking the histogram back to a
        # concrete trace (OpenMetrics exemplar semantics).
        self._exemplars: Dict[int, Tuple[float, str]] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        value = float(value)
        with self._lock:
            index = bisect.bisect_left(self.bounds, value)
            self.bucket_counts[index] += 1
            if exemplar is not None:
                self._exemplars[index] = (value, str(exemplar))
            self.count += 1
            self.total += value
            if len(self._reservoir) < self._reservoir_size:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self._reservoir_size:
                    self._reservoir[slot] = value

    def _bound_name(self, index: int) -> str:
        return (f"{self.bounds[index]:g}" if index < len(self.bounds)
                else "+Inf")

    def exemplars(self) -> Dict[str, Dict[str, Any]]:
        """Per-bucket exemplars keyed by upper bound: the trace id of
        the last observation recorded into that bucket."""
        with self._lock:
            items = dict(self._exemplars)
        return {self._bound_name(i): {"value": v, "trace_id": t}
                for i, (v, t) in sorted(items.items())}

    def percentile(self, p: float) -> float:
        """Estimated p-th percentile (0 < p <= 100) from the reservoir."""
        with self._lock:
            sample = sorted(self._reservoir)
        if not sample:
            return 0.0
        rank = max(0, min(len(sample) - 1,
                          int(round(p / 100.0 * (len(sample) - 1)))))
        return sample[rank]

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self.bucket_counts)
            count, total = self.count, self.total
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = count
        out = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": cumulative,
        }
        exemplars = self.exemplars()
        if exemplars:  # key omitted when unused: snapshots stay stable
            out["exemplars"] = exemplars
        return out


class MetricsRegistry:
    """Thread-safe get-or-create store of named, labelled instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelPairs], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelPairs], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelPairs], Histogram] = {}

    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str,
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    def reset(self) -> None:
        """Drop every instrument (tests and bench runs start clean)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- read paths ---------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as one nested dict (JSON-ready)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name + _label_suffix(labels): c.value
                for (name, labels), c in sorted(counters.items())},
            "gauges": {
                name + _label_suffix(labels): g.value
                for (name, labels), g in sorted(gauges.items())},
            "histograms": {
                name + _label_suffix(labels): h.as_dict()
                for (name, labels), h in sorted(histograms.items())},
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition (type lines + samples)."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        lines: List[str] = []
        typed: set = set()

        def type_line(name: str, kind: str) -> None:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), counter in counters:
            type_line(name, "counter")
            lines.append(f"{name}{_label_suffix(labels)} {counter.value:g}")
        for (name, labels), gauge in gauges:
            type_line(name, "gauge")
            lines.append(f"{name}{_label_suffix(labels)} {gauge.value:g}")
        for (name, labels), histogram in histograms:
            type_line(name, "histogram")
            data = histogram.as_dict()
            exemplars = data.get("exemplars", {})
            for bound, cumulative in data["buckets"].items():
                bucket_labels = labels + (("le", bound),)
                line = (f"{name}_bucket{_label_suffix(bucket_labels)} "
                        f"{cumulative}")
                exemplar = exemplars.get(bound)
                if exemplar is not None:
                    # OpenMetrics exemplar: `# {trace_id="..."} value`
                    line += (f' # {{trace_id="{exemplar["trace_id"]}"}}'
                             f' {exemplar["value"]:g}')
                lines.append(line)
            lines.append(f"{name}_sum{_label_suffix(labels)} "
                         f"{data['sum']:g}")
            lines.append(f"{name}_count{_label_suffix(labels)} "
                         f"{data['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY
