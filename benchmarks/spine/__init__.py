"""The benchmark spine: four end-to-end workloads with per-layer attribution.

``BENCHMARK.json`` at the repository root names the command, the
workloads and the metrics; ``README.md`` in this directory explains why
each was chosen and how to compare two sets of runs.  Nothing here is
imported by ``src/`` or the tier-1 tests.
"""
