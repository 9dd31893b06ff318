"""Smoke tests for the perf-benchmark suite (``python -m repro.bench``).

These run the suite in ``--quick`` mode and check the *artifacts*, not the
numbers: speedups are asserted only where they are structural (algorithmic
complexity), never for wall-clock-noise-sensitive ratios.
"""

import json

import pytest

from repro.bench import bench_names, main, write_bench_json

pytestmark = pytest.mark.bench


def test_quick_suite_emits_all_artifacts(tmp_path):
    assert main(["--quick", "--outdir", str(tmp_path)]) == 0
    for name in ("matching", "nic", "gs", "analysis", "verify"):
        path = tmp_path / f"BENCH_{name}.json"
        assert path.exists(), f"missing {path}"
        payload = json.loads(path.read_text())
        assert payload["name"] == name
        assert payload["quick"] is True
        assert payload["wall_s"] > 0
        assert payload["throughput"] > 0
        assert payload["unit"]


def test_bench_names_cover_required_artifacts():
    assert {"matching", "nic", "gs", "analysis",
            "verify"} <= set(bench_names())


def test_analysis_bench_asserts_bit_identity(tmp_path):
    """The analysis benchmark is itself a correctness check: it fails if a
    checked run diverges from the unchecked one or carries findings."""
    main(["--quick", "--only", "analysis", "--outdir", str(tmp_path)])
    payload = json.loads((tmp_path / "BENCH_analysis.json").read_text())
    assert payload["overhead_report"] > 0
    assert payload["lint_wall_s"] > 0
    assert payload["verify_wall_s"] > 0
    assert payload["sim_time_s"] > 0


def test_only_filter_runs_single_bench(tmp_path):
    assert main(["--quick", "--only", "matching",
                 "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "BENCH_matching.json").exists()
    assert not (tmp_path / "BENCH_nic.json").exists()


def test_matching_speedup_is_structural(tmp_path):
    """The indexed matcher's win over the O(n) walk is algorithmic, so even
    the quick sizes must show a clear factor."""
    main(["--quick", "--only", "matching", "--outdir", str(tmp_path)])
    payload = json.loads((tmp_path / "BENCH_matching.json").read_text())
    assert payload["speedup"] >= 2.0


def test_writer_handles_numpy_and_dataclasses(tmp_path):
    import dataclasses

    import numpy as np

    @dataclasses.dataclass
    class Point:
        x: float
        tag: str

    path = write_bench_json("scratch", {
        "scalar": np.float64(1.5),
        "array": np.arange(3),
        "point": Point(2.0, "p"),
        "nested": [{"n": np.int32(7)}],
    }, str(tmp_path))
    payload = json.loads(open(path).read())
    assert payload["scalar"] == 1.5
    assert payload["array"] == [0, 1, 2]
    assert payload["point"] == {"x": 2.0, "tag": "p"}
    assert payload["nested"] == [{"n": 7}]
