"""The repo's end-to-end benchmark (``BENCHMARK.json`` at the root).

Six figure-shaped workloads drive the public app runners one job at a
time; ``python benchmarks/e2e/__main__.py`` (or, with ``PYTHONPATH=src``,
``python -m benchmarks.e2e``) prints every declared metric and checks the
simulated statistics against ``golden.json``. See ``README.md`` here.
"""
