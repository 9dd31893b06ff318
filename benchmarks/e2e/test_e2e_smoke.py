"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e -q``;
not part of tier-1 ``testpaths``): ``--quick`` runs all three passes on
tiny inputs, passes the schema check and fails no operation."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MAIN = str(HERE / "__main__.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _run(*args, timeout=120):
    return subprocess.run([sys.executable, *args], cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True)


def test_quick_runs_all_passes(tmp_path):
    t0 = time.perf_counter()
    proc = _run(MAIN, "--quick", "--outdir", str(tmp_path))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30, f"--quick took {elapsed:.1f} s"

    results = json.loads((tmp_path / "results.json").read_text())
    assert results["failures"] == []
    assert sorted(results["workloads"]) == sorted(
        w["name"] for w in SPEC["workloads"])
    for name, res in results["workloads"].items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert res["schema"] == []
        assert sorted(res["metrics"]) == sorted(END_TO_END + PER_LAYER)
        # nothing is gone from src/repro today, so nothing may read null
        assert all(m["value"] is not None for m in res["metrics"].values()), name
        ledger = json.loads((tmp_path / f"ledger_{name}.json").read_text())
        assert set(ledger) >= {"layers", "files", "call_matrix"}

    layers = {n: r["metrics"] for n, r in results["workloads"].items()}
    for name in ("gs_mpi", "cg_backends"):
        assert layers[name]["tasking.share"]["value"] == 0
    assert layers["cg_backends"]["collectives.share"]["value"] > 0
    assert layers["gs_hybrid_observed"]["observe.overhead_ratio"]["value"] > 1
    for name, m in layers.items():
        assert m["sim.engine.step_calls"]["value"] == m["sim.events_fired"]["value"]


def test_driver_form_prints_the_result_object_last(tmp_path):
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        proc = _run(MAIN, "--quick", "--workload", "streaming_fine",
                    "--seed", "2", "--seconds", "1", "--trace", str(trace),
                    "--outdir", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(names)
        assert all(sorted(m) == ["unit", "value"]
                   for m in result["metrics"].values())


def test_golden_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    from benchmarks.e2e import cli

    golden = json.loads(cli.GOLDEN.read_text())
    golden["quick"]["gs_mpi"]["mpi"]["messages"] += 1
    fake = tmp_path / "golden.json"
    fake.write_text(json.dumps(golden))
    monkeypatch.setattr(cli, "GOLDEN", fake)
    code = cli.main(["--quick", "--trace", "1", "--workload", "gs_mpi",
                     "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1 and "golden mismatch" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_update_golden_refuses_another_seed(tmp_path):
    before = (HERE / "golden.json").read_text()
    proc = _run(MAIN, "--quick", "--seed", "2", "--update-golden",
                "--outdir", str(tmp_path))
    assert proc.returncode != 0 and "re-pins seed 1" in proc.stderr
    assert (HERE / "golden.json").read_text() == before


def test_lint_and_static_verifier_are_clean():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for mode in ("lint", "verify"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", mode, "benchmarks/"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
