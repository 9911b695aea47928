"""Paper-table harness: `repro.bench.harness` measures the paper's
section V, checks its claims and writes EXPERIMENTS.md's tables.  Claims
about this repo's own speed are ``benchmarks/e2e/``'s."""
