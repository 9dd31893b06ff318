"""Reproducibility guarantees across the full application runners: the
figures in EXPERIMENTS.md must regenerate exactly."""

import json

import numpy as np
import pytest

from repro.apps.miniamr import AMRParams, build_mesh_schedule, run_miniamr
from repro.apps.streaming import StreamingParams, run_streaming
from repro.faults import FaultPlan, RecoveryPolicy
from repro.harness import JobSpec, MARENOSTRUM4
from repro.trace import Tracer, chrome_trace

MACH4 = MARENOSTRUM4.with_cores(4)


class TestRunnerDeterminism:
    def test_streaming_identical_across_runs(self):
        params = StreamingParams(chunks=4, elements_per_chunk=1024,
                                 block_size=128, compute_data=False)

        def run():
            spec = JobSpec(machine=MACH4, n_nodes=3, variant="tagaspi",
                           poll_period_us=25, seed=9)
            return run_streaming(spec, params)

        a, b = run(), run()
        assert a.sim_time == b.sim_time
        assert a.extra["messages"] == b.extra["messages"]

    def test_miniamr_identical_across_runs(self):
        params = AMRParams(nx=2, ny=2, nz=2, max_level=1, timesteps=4,
                           refine_every=2, variables=4, compute_data=False)

        def run():
            spec = JobSpec(machine=MACH4, n_nodes=2, variant="tampi",
                           poll_period_us=25, seed=3)
            sched = build_mesh_schedule(params, spec.n_ranks)
            return run_miniamr(spec, params, schedule=sched)

        a, b = run(), run()
        assert a.sim_time == b.sim_time
        assert a.extra["refine_time"] == b.extra["refine_time"]

    def test_different_seed_changes_timing_not_results(self):
        """Seeds move jitter (timing) but never numerics."""
        from repro.apps.gauss_seidel import GSParams, run_gauss_seidel

        params = GSParams(rows=24, cols=16, timesteps=2, block_size=8)

        # MPI-only: completion times are not quantized by a polling grid,
        # so the seed-dependent jitter is directly visible in sim_time
        def run(seed):
            spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi", seed=seed)
            return run_gauss_seidel(spec, params, collect_grid=True)

        a, b = run(1), run(2)
        assert np.array_equal(a.extra["grid"], b.extra["grid"])
        assert a.sim_time != b.sim_time

    def test_seed_none_disables_all_noise(self):
        params = StreamingParams(chunks=3, elements_per_chunk=512,
                                 block_size=64, compute_data=False)

        def run():
            spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi", seed=None)
            return run_streaming(spec, params)

        assert run().sim_time == run().sim_time

    def test_identical_seeds_give_identical_traces(self):
        """The trace is a pure function of the run: identical seeds must
        export byte-identical Chrome-trace documents."""
        params = StreamingParams(chunks=4, elements_per_chunk=1024,
                                 block_size=128, compute_data=False)

        def run():
            tracer = Tracer(progress_every=200)
            spec = JobSpec(machine=MACH4, n_nodes=3, variant="tagaspi",
                           poll_period_us=25, seed=9)
            run_streaming(spec, params, tracer=tracer)
            return tracer

        a, b = run(), run()
        assert len(a) == len(b) > 0
        assert a.records == b.records
        dump = lambda t: json.dumps(chrome_trace(t), sort_keys=True)
        assert dump(a) == dump(b)


class TestFaultDeterminism:
    """A faulted run is a pure function of (plan, seed); an empty plan is
    bit-identical to no plan at all."""

    @staticmethod
    def _run_gs(faults, variant="tagaspi", seed=7, check=None):
        from repro.apps.gauss_seidel import GSParams, run_gauss_seidel

        params = GSParams(rows=64, cols=64, timesteps=2, block_size=32)
        tracer = Tracer(progress_every=None)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant=variant, seed=seed,
                       faults=faults, check=check)
        res = run_gauss_seidel(spec, params, tracer=tracer)
        return res, tracer

    @staticmethod
    def _dump(tracer):
        return json.dumps(chrome_trace(tracer), sort_keys=True)

    def test_same_plan_same_seed_identical(self):
        plan = FaultPlan.severe(drop_prob=0.2, dup_prob=0.1, reorder_prob=0.1,
                                recovery=RecoveryPolicy(op_timeout=5e-3))
        a, ta = self._run_gs(plan)
        b, tb = self._run_gs(plan)
        assert a.sim_time == b.sim_time
        assert a.extra == b.extra
        assert a.extra["fault_injected"] > 0
        assert self._dump(ta) == self._dump(tb)

    def test_empty_plan_bit_identical_to_no_plan(self):
        a, ta = self._run_gs(None)
        b, tb = self._run_gs(FaultPlan())
        assert a.sim_time == b.sim_time
        assert a.extra == b.extra
        assert self._dump(ta) == self._dump(tb)

    def test_recovery_only_plan_bit_identical_to_no_plan(self):
        # a recovery policy with no active faults never fires on a healthy
        # run, so the wire path (and the trace) must stay untouched
        a, ta = self._run_gs(None)
        b, tb = self._run_gs(FaultPlan(recovery=RecoveryPolicy(op_timeout=10.0)))
        assert a.sim_time == b.sim_time
        assert self._dump(ta) == self._dump(tb)

    def test_analysis_checkers_are_bit_invisible(self):
        """The correctness checkers are passive observers: a ``check=``
        run must be bit-identical — results *and* trace — to an unchecked
        one (the zero-perturbation contract of docs/analysis.md)."""
        a, ta = self._run_gs(None)
        for check in ("report", "strict"):
            b, tb = self._run_gs(None, check=check)
            assert a.sim_time == b.sim_time, check
            assert a.extra == b.extra, check
            assert self._dump(ta) == self._dump(tb), check

    def test_fault_seed_changes_injections_not_numerics(self):
        import numpy as np
        from repro.apps.gauss_seidel import GSParams, run_gauss_seidel

        params = GSParams(rows=64, cols=64, timesteps=2, block_size=32)

        def run(seed):
            spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi", seed=seed,
                           faults=FaultPlan.severe())
            return run_gauss_seidel(spec, params, collect_grid=True)

        a, b = run(1), run(2)
        assert np.array_equal(a.extra["grid"], b.extra["grid"])
        assert a.sim_time != b.sim_time


class TestPerfDeterminism:
    """The perf-diagnosis subsystem is a passive observer: a ``perf=True``
    run must be bit-identical in simulated time (and in the underlying
    trace) to a plain run, and its analysis a pure function of the trace."""

    @staticmethod
    def _run_gs(variant, perf, tracer=None, seed=7):
        from repro.apps.gauss_seidel import GSParams, run_gauss_seidel

        params = GSParams(rows=64, cols=64, timesteps=2, block_size=32,
                          compute_data=False)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant=variant, seed=seed,
                       poll_period_us=25, perf=perf)
        return run_gauss_seidel(spec, params, tracer=tracer)

    @pytest.mark.parametrize("variant", ["mpi", "tampi", "tagaspi"])
    def test_perf_run_bit_identical_to_plain(self, variant):
        plain = self._run_gs(variant, perf=False)
        perf = self._run_gs(variant, perf=True)
        assert perf.sim_time == plain.sim_time
        assert perf.throughput == plain.throughput
        stripped = {k: v for k, v in perf.extra.items()
                    if not k.startswith("perf_")}
        assert stripped == plain.extra
        assert any(k.startswith("perf_") for k in perf.extra)

    def test_perf_run_leaves_trace_untouched(self):
        """Passing an external tracer: the perf analysis consumes it but
        must not add, drop, or reorder a single record."""
        ta = Tracer(progress_every=None)
        self._run_gs("tagaspi", perf=False, tracer=ta)
        tb = Tracer(progress_every=None)
        self._run_gs("tagaspi", perf=True, tracer=tb)
        assert len(ta) == len(tb) > 0
        assert ta.records == tb.records
        dump = lambda t: json.dumps(chrome_trace(t), sort_keys=True)
        assert dump(ta) == dump(tb)

    @pytest.mark.parametrize("variant", ["mpi", "tagaspi"])
    def test_critical_path_identical_across_runs(self, variant):
        from repro.perf import critical_path, model_from_tracer

        def run():
            tr = Tracer(progress_every=None)
            self._run_gs(variant, perf=False, tracer=tr)
            return critical_path(model_from_tracer(tr))

        a, b = run(), run()
        assert a.segments == b.segments
        assert a.makespan == b.makespan
        assert len(a.segments) > 0

    def test_perf_metrics_identical_across_runs(self):
        a = self._run_gs("tagaspi", perf=True)
        b = self._run_gs("tagaspi", perf=True)
        perf_keys = {k: v for k, v in a.extra.items()
                     if k.startswith("perf_")}
        assert perf_keys == {k: v for k, v in b.extra.items()
                             if k.startswith("perf_")}


class TestCollectiveBackendDeterminism:
    """The collectives subsystem joins the repo-wide contract: every
    backend is pure in (spec, params), bit-identical between serial and
    sharded sweeps, and pure in (plan, seed) under fault injection."""

    def _params(self):
        from repro.apps.cg import CGParams

        return CGParams(n=48, iterations=5)

    @pytest.mark.parametrize("backend", ["twosided", "rma", "gaspi"])
    def test_backend_identical_across_runs(self, backend):
        from repro.apps.cg import run_cg

        spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi",
                       backend=backend, seed=11)
        a, b = run_cg(spec, self._params()), run_cg(spec, self._params())
        assert a.sim_time == b.sim_time
        assert a.extra["residual"] == b.extra["residual"]
        assert a.extra["messages"] == b.extra["messages"]

    def test_backend_sweep_serial_vs_parallel_bit_identical(self):
        from repro.apps.cg import run_cg
        from repro.harness import run_variants

        def sweep(workers):
            return run_variants(run_cg, MACH4, 1, self._params(),
                                variants=("mpi",), workers=workers,
                                backend=["twosided", "rma", "gaspi"])

        serial, sharded = sweep(1), sweep(2)
        for key, res in serial["mpi"].items():
            other = sharded["mpi"][key]
            assert res.sim_time == other.sim_time
            assert res.extra["residual"] == other.extra["residual"]

    @pytest.mark.parametrize("backend", ["twosided", "gaspi"])
    def test_faulted_backend_pure_in_plan_and_seed(self, backend):
        from repro.apps.cg import run_cg

        spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi",
                       backend=backend, faults=FaultPlan.severe(), seed=5)
        a, b = run_cg(spec, self._params()), run_cg(spec, self._params())
        assert a.sim_time == b.sim_time
        assert a.extra["fault_injected"] == b.extra["fault_injected"]
        assert a.extra["residual"] == b.extra["residual"]

    def test_ec_allreduce_identical_across_runs(self):
        from repro.apps.cg import CGParams, run_cg

        params = CGParams(n=48, iterations=5, staleness=1)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi",
                       backend="gaspi", seed=13)
        a, b = run_cg(spec, params), run_cg(spec, params)
        assert a.sim_time == b.sim_time
        assert a.extra["residual"] == b.extra["residual"]
        assert a.extra["ec_missing"] == b.extra["ec_missing"]
