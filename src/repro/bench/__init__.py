"""Reproducible performance benchmarks for the simulator itself.

``python -m repro.bench`` runs the pinned suite and drops one
``BENCH_<name>.json`` per benchmark; see docs/performance.md for how to
read and refresh the artifacts.
"""

from repro.bench.cli import main
from repro.bench.compare import (
    append_history,
    compare_against_dir,
    compare_payloads,
    history_record,
)
from repro.bench.record import write_bench_json
from repro.bench.suites import bench_names, run_bench

__all__ = [
    "main",
    "write_bench_json",
    "bench_names",
    "run_bench",
    "compare_payloads",
    "compare_against_dir",
    "history_record",
    "append_history",
]
