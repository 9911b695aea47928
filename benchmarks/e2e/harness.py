"""Shared pieces of the end-to-end benchmark: corpus, query sets, sample
bookkeeping, statistics, answer digests and the environment block.

Only the repo's public surface is imported, and only inside functions,
so a refactor that moves a module breaks one probe and not the import of
this file.
"""

from __future__ import annotations

import gc
import inspect
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import constants as C

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(REPO_ROOT, ".tmp", "bench")


def bootstrap() -> None:
    """Put the checkout's ``src`` first on the path; fail loudly when the
    program under test is not there (a directory with only the benchmark)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401  (a broken checkout must fail here)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")


def cell_geomean(samples: Dict[str, List[float]]) -> float:
    """Geometric mean over cells of the per-cell median."""
    return geomean(median(v) for v in samples.values() if v)


class Samples:
    """Latency samples (ms) of one kind of operation, grouped by cell."""

    def __init__(self):
        self.cells: Dict[str, List[float]] = {}
        self.total_ms = 0.0
        self.count = 0

    def add(self, cell: str, ms: float) -> None:
        self.cells.setdefault(cell, []).append(ms)
        self.total_ms += ms
        self.count += 1

    def all(self) -> List[float]:
        return [v for cell in self.cells.values() for v in cell]

    def summary(self) -> Dict[str, float]:
        values = self.all()
        return {"n": len(values), "p50": percentile(values, 50),
                "p95": percentile(values, 95), "p99": percentile(values, 99),
                "cell_geomean": cell_geomean(self.cells)}


def timed_ms(fn: Callable[[], object]) -> Tuple[object, float]:
    start = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - start) * 1000.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Collect garbage between phases so a collection triggered by one
    phase's allocations is not billed to the next."""
    gc.collect()


# ---------------------------------------------------------------------------
# corpus and query sets
# ---------------------------------------------------------------------------

class Corpus:
    """The seeded DBLP corpus, its database and the planted query sets."""

    def __init__(self, seed: int, n_papers: int):
        from repro import XMLDatabase
        from repro.datagen.dblp import DBLPGenerator
        from repro.datagen.workload import WorkloadBuilder
        from repro.scoring.ranking import DampingFunction, RankingModel

        self.seed = seed
        self.steps: Dict[str, float] = {}
        scale = n_papers / C.N_PAPERS
        low_freqs = tuple(sorted({max(2, int(f * scale))
                                  for f in C.LOW_FREQS}))
        self.builder = WorkloadBuilder(
            high_freq=max(2, int(C.HIGH_FREQ * scale)), low_freqs=low_freqs,
            per_cell=C.PER_CELL, max_keywords=C.MAX_KEYWORDS,
            correlated_entities=max(2, int(C.CORRELATED_ENTITIES * scale)),
            seed=seed + C.WORKLOAD_SEED_OFFSET)
        start = time.perf_counter()
        tree = DBLPGenerator(seed=seed, n_papers=n_papers,
                             abstract_words=C.ABSTRACT_WORDS,
                             plan=self.builder.plan()).generate()
        self.steps["datagen.generate_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.db = XMLDatabase.from_tree(
            tree, ranking=RankingModel(damping=DampingFunction(
                C.DAMPING_BASE)))
        self.db.inverted_index
        self.steps["index.inverted.build_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.db.columnar_index
        self.steps["index.columnar.build_s"] = time.perf_counter() - start
        self.build_s = sum(self.steps.values())

    # The Fig. 9 grid: the sweep at k=2..5 plus equal-frequency cells.
    def fig9_queries(self) -> List[Tuple[str, Tuple[str, ...]]]:
        specs = []
        for k in range(2, C.MAX_KEYWORDS + 1):
            specs += self.builder.frequency_sweep(k)
        for freq in self.builder.low_freqs[1:3]:
            for k in range(2, C.MAX_KEYWORDS + 1):
                specs += self.builder.equal_frequency(k, freq)
        return [(s.label, tuple(s.terms)) for s in specs]

    def correlated_queries(self) -> List[Tuple[str, Tuple[str, ...]]]:
        return [(s.label, tuple(s.terms))
                for s in self.builder.correlated_queries()]

    def fig10_queries(self) -> List[Tuple[str, Tuple[str, ...]]]:
        sweep = (self.builder.frequency_sweep(2)
                 + self.builder.frequency_sweep(4))
        return self.correlated_queries() + [(s.label, tuple(s.terms))
                                            for s in sweep]


def supports_kwarg(fn: Callable, name: str) -> bool:
    try:
        return name in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# answer digests
# ---------------------------------------------------------------------------

def dewey_set(results) -> frozenset:
    return frozenset(tuple(r.node.dewey) for r in results)


def score_key(score: float) -> float:
    """Scores agree across engines to rounding, not to the last bit."""
    return float(f"{score:.9g}")


def scored_set(results) -> frozenset:
    return frozenset((tuple(r.node.dewey), score_key(r.score))
                     for r in results)


def score_multiset(results) -> Tuple[float, ...]:
    return tuple(sorted((score_key(r.score) for r in results), reverse=True))


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

_KERNEL_BASE = None


def speed_kernel() -> int:
    """A fixed numpy + pure-Python kernel (about 2 ms); its duration says
    how fast the host is running right now."""
    global _KERNEL_BASE
    import numpy as np

    if _KERNEL_BASE is None:
        _KERNEL_BASE = (np.arange(60_000, dtype=np.int64)
                        * 2654435761) % 1000003
    values = _KERNEL_BASE.copy()
    values.sort()
    np.cumsum(values)
    total = 0
    for i in range(30_000):
        total += i & 7
    return total


class HostSpeed:
    """The speed kernel timed between the operations of a measured phase.

    This host's speed drifts by up to 50 % over seconds (README.md, "Host
    drift"), which no estimator over a 10 s window removes.  The kernel
    runs through the same seconds as the operations, and `factor` scales
    the phase's times to the frozen reference speed.
    """

    def __init__(self, min_gap_s: float = 0.05):
        self.min_gap_s = min_gap_s
        self.samples_ms: List[float] = []
        self.sampled_at: List[float] = []
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        speed_kernel()
        self._last = time.perf_counter()
        self.samples_ms.append((self._last - start) * 1000.0)
        self.sampled_at.append(start)

    def tick(self) -> None:
        """Sample if the last sample is at least `min_gap_s` old."""
        if time.perf_counter() - self._last >= self.min_gap_s:
            self.sample()

    def kernel_ms(self) -> float:
        return median(self.samples_ms)

    def factor(self) -> float:
        """Multiply a time of this phase by this to state it at the
        reference speed."""
        return C.REF_KERNEL_MS / self.kernel_ms() if self.samples_ms else 1.0


def calibrate_ms() -> float:
    speed = HostSpeed()
    for _ in range(6):              # the first pass only warms numpy up
        speed.sample()
    return median(speed.samples_ms[1:])


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def env_begin() -> Dict[str, object]:
    import numpy as np

    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg()[0],
            "calib_ms_start": calibrate_ms()}


def env_end(env: Dict[str, object]) -> Dict[str, object]:
    env["loadavg_end"] = os.getloadavg()[0]
    env["calib_ms_end"] = calibrate_ms()
    drift = abs(env["calib_ms_end"] - env["calib_ms_start"]) \
        / env["calib_ms_start"]
    env["calib_drift"] = drift
    env["noisy"] = bool(
        max(env["loadavg_start"], env["loadavg_end"]) > (env["nproc"] or 1)
        or drift > 0.10)
    return env
