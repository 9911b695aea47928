"""Frozen constants of the benchmark of record.

Changing any of these changes what the numbers mean, so a change here is
a benchmark change (its own PR, no gain claimed, baseline re-measured).
README.md explains why each value was chosen.
"""

WORKLOADS = ("fig9_complete", "fig10_topk", "disk_roundtrip", "serve_open")

DEFAULT_SEED = 7
DEFAULT_SECONDS = 12

# Corpus: the EXPERIMENTS.md configuration (about 130k nodes).
N_PAPERS = 20_000
SMOKE_PAPERS = 2_000
ABSTRACT_WORDS = 12
HIGH_FREQ = 4_000
LOW_FREQS = (10, 100, 1_000, 4_000)
PER_CELL = 2
MAX_KEYWORDS = 5
CORRELATED_ENTITIES = 2_500
WORKLOAD_SEED_OFFSET = 4        # WorkloadBuilder(seed=S + 4)
DAMPING_BASE = 0.8

# Duration of harness.speed_kernel on this box when nothing disturbs it;
# measured phases are scaled to it (README.md, "Host drift").
REF_KERNEL_MS = 1.75

TOPK = 10
ORACLE_SAMPLE = 12              # (query, semantics) pairs checked per run

# disk_roundtrip
DISK_FORMAT_VERSION = 4
DISK_MIN_OPENS = 3
SPILL_CACHE_BYTES = 262_144     # decoded-column cache smaller than the set

# serve_open
SERVE_SHARDS = 2
HOT_POOL = 32                   # organic hot queries, plus the correlated 4
HOT_SHARE = 0.80                # share of requests drawn from the hot pool
SEARCH_SHARE = 0.70             # /search; the rest is /topk?k=10
RATE_LADDER_QPS = (60, 120, 240, 480)
LATENCY_LIMIT_MS = 100.0        # p95 limit for max_rate_ok_qps
BACKLOG_LIMIT_MS = 100.0        # mean lateness of the last tenth
MIN_P95_SAMPLES = 200
COLD_CHECK_SAMPLE = 48          # never-repeated queries verified per run
TERM_BANDS = ((500, 20_000), (50, 500), (5, 50))   # df of term 1, 2.., last
BAND_TERMS = 100                # organic terms drawn per band
