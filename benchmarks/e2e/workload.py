"""What every workload shares: the measured-phase record, the per-layer
probe collector and the interface `run.py` drives."""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import harness as H

# A refactor may remove what a probe calls (an eraser, a format, a kwarg);
# that is the probe's result, not the run's failure.
PROBE_ERRORS = (ImportError, AttributeError, TypeError, LookupError,
                ValueError, OSError)


class Measure:
    """One measured phase: samples, operation counts and kept answers."""

    def __init__(self):
        self.main = H.Samples()                 # behind query_p50/p95/geomean
        self.extra: Dict[str, H.Samples] = {}   # comparators, other op kinds
        self.answers: Dict[object, object] = {}  # last answer per query key
        self.sizes: Dict[object, int] = {}
        self.ops: Dict[object, int] = {}
        self.unstable = 0      # ops whose answer size changed between passes
        self.failed = 0        # ops that raised or came back non-200
        self.busy_s = 0.0      # timed wall time behind throughput_qps
        self.throughput_ops = 0
        self.replies: list = []    # served path only: the main phase
        self.speed = H.HostSpeed()  # host speed through this phase

    def samples(self, kind: str) -> H.Samples:
        return self.extra.setdefault(kind, H.Samples())

    def keep(self, key, answer, size: int) -> None:
        self.ops[key] = self.ops.get(key, 0) + 1
        if self.sizes.setdefault(key, size) != size:
            self.unstable += 1
        self.answers[key] = answer

    @property
    def attempted(self) -> int:
        return self.main.count + sum(s.count for s in self.extra.values())

    def throughput_qps(self) -> float:
        return self.throughput_ops / self.busy_s if self.busy_s else 0.0


class Layers:
    """Per-layer metric values; a probe that cannot run leaves a reason."""

    def __init__(self):
        self.values: Dict[str, float] = {}
        self.errors: Dict[str, str] = {}

    def probe(self, names: List[str], fn: Callable[[], Dict[str, float]]
              ) -> None:
        try:
            self.values.update(fn())
        except PROBE_ERRORS as exc:
            for name in names:
                self.errors[name] = f"{type(exc).__name__}: {exc}"

    def set(self, name: str, value: Optional[float]) -> None:
        if value is None or value != value:
            self.errors[name] = "not measured"
        else:
            self.values[name] = float(value)


class Workload:
    """Interface `run.py` drives; set-up work goes in `setup`, which
    returns the seconds it took beyond building the corpus."""

    name = ""

    def __init__(self, corpus: H.Corpus, seed: int, smoke: bool,
                 work_dir: str):
        self.corpus = corpus
        self.db = corpus.db
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir

    def setup(self, layers: Layers) -> float:
        start = time.perf_counter()
        self.warm_up()
        return time.perf_counter() - start

    def warm_up(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, log=None) -> Measure:
        raise NotImplementedError

    def check(self, measure: Measure) -> int:
        """Failed operations, judged outside any timed region."""
        raise NotImplementedError

    def probes(self, layers: Layers, untraced: Measure, traced: Measure,
               log) -> None:
        raise NotImplementedError

    def peak_rss_mib(self) -> float:
        return H.peak_rss_mib()

    def close(self) -> None:
        pass


def run_op(measure: Measure, log, fn: Callable[[], object], name: str):
    """Time one operation; under tracing it is the root span of its op.
    The host-speed kernel runs between operations, never inside one."""
    measure.speed.tick()
    start = time.perf_counter()
    out = log.operation(fn, name) if log is not None else fn()
    return out, (time.perf_counter() - start) * 1000.0


def mean_of_medians(per_key: Dict[object, List[float]]) -> float:
    meds = [H.median(v) for v in per_key.values() if v]
    return sum(meds) / len(meds) if meds else float("nan")


def repeat_timed(keys, fn: Callable[[object], object], reps: int
                 ) -> Dict[object, List[float]]:
    """`reps` interleaved passes of fn(key) over keys; ms per key."""
    out: Dict[object, List[float]] = {}
    for _ in range(reps):
        for key in keys:
            _, ms = H.timed_ms(lambda: fn(key))
            out.setdefault(key, []).append(ms)
    return out
