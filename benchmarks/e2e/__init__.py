"""End-to-end benchmark: four input-defined workloads, both clocks, traced from outside.

See ``README.md`` in this directory.  Entry points: ``run.py`` (the
``BENCHMARK.json`` command and ``python -m benchmarks.e2e run|compare``).
"""
