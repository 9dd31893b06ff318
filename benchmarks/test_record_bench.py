"""The figure benchmarks' artifact writer (:func:`benchmarks.conftest.record_bench`)."""

import dataclasses
import json

import numpy as np

from benchmarks.conftest import record_bench


def test_writer_handles_numpy_and_dataclasses(tmp_path, monkeypatch):
    @dataclasses.dataclass
    class Point:
        x: float
        tag: str

    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    path = record_bench("scratch", {
        "scalar": np.float64(1.5),
        "array": np.arange(3),
        "point": Point(2.0, "p"),
        "nested": [{"n": np.int32(7)}],
        16: {("mpi", 2): np.bool_(True)},
    }, nodes=(1, 2))
    assert path == str(tmp_path / "scratch.json")
    payload = json.loads(open(path).read())
    assert payload["name"] == "scratch"
    assert payload["nodes"] == [1, 2]
    results = payload["results"]
    assert results["scalar"] == 1.5
    assert results["array"] == [0, 1, 2]
    assert results["point"] == {"x": 2.0, "tag": "p"}
    assert results["nested"] == [{"n": 7}]
    assert results["16"] == {"('mpi', 2)": True}
