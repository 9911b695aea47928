"""The daemon's metrics: counters, gauges and latency histograms.

A `MetricsRegistry` is a thread-safe, label-aware instrument store.
The serve daemon publishes into it -- request outcomes, rejections,
queue wait, latency, queue depth, in-flight requests and per-shard
latency -- and so does its supervisor (pool rebuilds); ``GET
/metrics`` serves it through `render_prometheus`, the Prometheus text
exposition format.  The
library itself publishes nothing: a query's time and work are on its
`ExecutionStats`.

Histograms are fixed buckets (cheap, mergeable, Prometheus-shaped), an
O(log buckets) update per observation, with the most recent trace id
per bucket kept as an exemplar.

Each `ServeDaemon` publishes into a registry of its own
(``daemon.metrics``, rendered at ``/metrics``).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Exponential-ish latency ladder in milliseconds: microseconds through
# tens of seconds, the range a request or a shard call can realistically
# span.
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
    """A value that goes up and down."""

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

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
        with self._lock:
            return self._value


class Histogram:
    """Fixed buckets: Prometheus-shaped cumulative counts, plus a sum
    and a count.  Quantiles are estimated by whoever reads the
    buckets (``histogram_quantile`` style)."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "_lock",
                 "_exemplars")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.bounds = tuple(sorted(float(b) for b in buckets))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +inf bucket
        self.count = 0
        self.total = 0.0
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
            "buckets": cumulative,
        }
        exemplars = self.exemplars()
        if exemplars:  # key omitted when unused
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
