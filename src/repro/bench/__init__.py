"""Paper-table harness: `repro.bench.harness` regenerates the paper's
section V tables and figures for EXPERIMENTS.md (``python -m
repro.bench.harness``, ``pytest benchmarks/ --benchmark-only``).

It is not where a performance claim about this repo is measured -- that
is ``benchmarks/e2e/run.py`` + ``compare.py``.  Import from
`repro.bench.harness` directly; the package re-exports nothing.
"""
