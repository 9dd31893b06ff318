"""Per-layer explanations: plain pytest files for the layers no
``benchmarks/e2e`` workload reaches.

Each file asserts its layer's contract and prints its timings; none
writes an artifact, reads a baseline or gates on a threshold. Run with::

    PYTHONPATH=src python -m pytest benchmarks/explain -q -s
"""
