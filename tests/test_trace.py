"""The unified tracing & metrics subsystem (``repro.trace``).

Covers the tracer record API, the zero-cost null-tracer fast path, the
Chrome-trace exporter round-trip, the CLI summarizer, and — end to end —
that a traced Gauss–Seidel 4-node run emits spans from every instrumented
layer while leaving the simulation results bit-identical to an untraced
run.
"""

import json

import pytest

from repro.apps.gauss_seidel import GSParams, run_gauss_seidel
from repro.harness import JobSpec, MARENOSTRUM4
from repro.sim import Engine
from repro.sim.engine import SimulationError
from repro.sim.events import Timeout
from repro.trace import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    load_chrome_trace,
    text_timeline,
    write_chrome_trace,
)
from repro.trace import view

MACH4 = MARENOSTRUM4.with_cores(4)
GS_PARAMS = GSParams(rows=48, cols=32, timesteps=2, block_size=8,
                     compute_data=False)


def _gs_spec(variant):
    return JobSpec(machine=MACH4, n_nodes=4, variant=variant,
                   poll_period_us=25, seed=7)


class TestTracerAPI:
    def test_records_and_queries(self):
        tr = Tracer()
        assert tr.enabled
        tr.span("mpi", "isend", 1.0, 2.0, rank=0, nbytes=64)
        tr.span("net", "gaspi.notify", 2.0, 3.5, rank=1)
        tr.instant("sim", "wakeup", 4.0)
        tr.counter("gaspi", "q0.depth", 5.0, 3.0, rank=2)
        assert len(tr) == 4
        assert sorted(tr.categories()) == ["gaspi", "mpi", "net", "sim"]
        spans = list(tr.spans("mpi"))
        assert len(spans) == 1 and spans[0].args["nbytes"] == 64

    def test_reversed_span_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.span("sim", "bad", 2.0, 1.0)

    def test_null_tracer_is_disabled_no_op(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.span("mpi", "isend", 0.0, 1.0)
        NULL_TRACER.instant("sim", "x", 0.0)
        NULL_TRACER.counter("sim", "x", 0.0, 1.0)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.categories() == []

    def test_engine_defaults_to_null_tracer(self):
        assert Engine().tracer is NULL_TRACER


class TestMetricsRegistry:
    def test_duplicate_keys_are_summed(self):
        reg = MetricsRegistry()
        reg.register("a", lambda: {"x": 1.0, "y": 2.0})
        reg.register("b", lambda: {"x": 3.0})
        assert reg.collect() == {"x": 4.0, "y": 2.0}
        assert len(reg) == 2


class TestEngineHooks:
    def test_run_progress_instants(self):
        eng = Engine(tracer=Tracer(progress_every=4))
        for i in range(10):
            Timeout(eng, float(i))
        eng.run()
        marks = [r for r in eng.tracer.records if r.name == "progress"]
        assert len(marks) == 2  # after 4 and 8 of 10 events
        assert [m.args["events"] for m in marks] == [4, 8]

    def test_budget_error_reports_pending_events(self):
        eng = Engine()
        for i in range(5):
            Timeout(eng, float(i))
        with pytest.raises(SimulationError, match=r"2 queued-but-unfired"):
            eng.run(max_events=3)


class TestTracedGaussSeidel:
    """The acceptance run: GS on 4 nodes, every instrumented layer."""

    @pytest.fixture(scope="class")
    def traced(self):
        # one tracer across both hybrid variants: the TAGASPI GS variant is
        # pure one-sided (no MPI calls, as in the paper), so the tampi run
        # supplies the mpi-layer spans
        tracer = Tracer(progress_every=200)
        untraced, traced = {}, {}
        for variant in ("tagaspi", "tampi"):
            untraced[variant] = run_gauss_seidel(_gs_spec(variant), GS_PARAMS)
            traced[variant] = run_gauss_seidel(_gs_spec(variant), GS_PARAMS,
                                               tracer=tracer)
        return tracer, untraced, traced

    def test_all_five_layers_present(self, traced):
        tracer, _, _ = traced
        cats = set(tracer.categories())
        assert {"sim", "net", "mpi", "gaspi", "tasking"} <= cats
        assert {"tagaspi", "tampi"} <= cats  # task-aware library layers

    def test_tagaspi_run_layers(self):
        tracer = Tracer(progress_every=200)
        run_gauss_seidel(_gs_spec("tagaspi"), GS_PARAMS, tracer=tracer)
        assert {"sim", "net", "gaspi", "tagaspi", "tasking"} <= set(
            tracer.categories())

    def test_tracing_is_passive(self, traced):
        _, untraced, traced_res = traced
        for variant in ("tagaspi", "tampi"):
            a, b = untraced[variant], traced_res[variant]
            assert a.sim_time == b.sim_time
            assert a.throughput == b.throughput

    def test_metrics_swept_into_extra(self, traced):
        _, untraced, _ = traced
        for variant, res in untraced.items():
            for key in ("comm_time", "lock_wait_time", "messages",
                        "notifications"):
                assert key in res.extra, (variant, key)
            assert res.extra["messages"] > 0
            assert res.extra["comm_time"] > 0
        assert untraced["tagaspi"].extra["notifications"] > 0
        assert untraced["tampi"].extra["tampi_iwaits"] > 0
        assert untraced["tagaspi"].extra["tagaspi_ops"] > 0

    def test_chrome_export_round_trip(self, traced, tmp_path):
        tracer, _, _ = traced
        path = tmp_path / "gs.trace.json"
        write_chrome_trace(tracer, path)
        doc = load_chrome_trace(path)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "i", "C", "M"} <= phases
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == sum(
            1 for r in tracer.records if r.kind == "span")
        for e in spans:
            assert e["dur"] >= 0 and "cat" in e and "pid" in e
        # byte-stable serialization: re-export matches the file exactly
        assert json.dumps(chrome_trace(tracer), sort_keys=True,
                          separators=(",", ":")) == path.read_text()

    def test_text_timeline_renders(self, traced):
        tracer, _, _ = traced
        out = text_timeline(tracer, limit=20)
        assert "category" in out and "t0 (us)" in out
        assert len(out.splitlines()) == 24  # title + rules + header + 20 rows

    def test_view_cli_summarizes(self, traced, tmp_path, capsys):
        tracer, _, _ = traced
        path = tmp_path / "gs.trace.json"
        write_chrome_trace(tracer, path)
        assert view.main([str(path), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "tagaspi" in out and "total time" in out

    def test_view_cli_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert view.main([str(bad)]) == 1


class TestLoadValidation:
    def test_load_requires_trace_events(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError, match="traceEvents"):
            load_chrome_trace(p)
