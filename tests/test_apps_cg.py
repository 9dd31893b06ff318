"""Tests for the collective-heavy CG mini-app (:mod:`repro.apps.cg`) and
the harness ``backend=`` sweep axis it exercises."""

import numpy as np
import pytest

from repro.apps.cg import CGParams, cg_matrix, cg_reference, run_cg
from repro.faults import FaultPlan
from repro.harness import JobSpec, MARENOSTRUM4, VariantError, run_variants

PARAMS = CGParams(n=48, iterations=6)
REF_X, REF_RS = cg_reference(PARAMS.n, PARAMS.iterations)


def spec_for(backend, cores=4, n_nodes=1, **kw):
    return JobSpec(machine=MARENOSTRUM4.with_cores(cores), n_nodes=n_nodes,
                   variant="mpi", backend=backend, **kw)


class TestNumerics:
    def test_operator_is_spd(self):
        a = cg_matrix(32)
        assert np.array_equal(a, a.T)
        assert np.all(np.linalg.eigvalsh(a) > 0)

    @pytest.mark.parametrize("backend", ["twosided", "rma", "gaspi"])
    @pytest.mark.parametrize("cores", [2, 3, 4, 8])
    def test_matches_reference_on_every_backend(self, backend, cores):
        res = run_cg(spec_for(backend, cores=cores, check="strict"),
                     PARAMS, collect_solution=True)
        assert np.allclose(res.extra["solution"], REF_X, rtol=1e-9)
        assert res.extra["residual"] == pytest.approx(REF_RS, rel=1e-9)

    def test_residual_agrees_across_backends(self):
        """Backends reduce in different orders (tree vs rank-sorted vs
        ring), so agreement is to rounding, not bit-identity."""
        residuals = {
            b: run_cg(spec_for(b), PARAMS).extra["residual"]
            for b in ("twosided", "rma", "gaspi")
        }
        vals = list(residuals.values())
        assert all(v == pytest.approx(vals[0], rel=1e-12) for v in vals)

    def test_cost_model_mode_runs_without_data(self):
        params = CGParams(n=256, iterations=3, compute_data=False)
        res = run_cg(spec_for("gaspi"), params)
        assert res.sim_time > 0
        assert res.throughput > 0


class TestBackendAxis:
    def test_run_variants_backend_grid(self):
        out = run_variants(run_cg, MARENOSTRUM4.with_cores(4), 1, PARAMS,
                           variants=("mpi",),
                           backend=["twosided", "rma", "gaspi"])
        assert list(out["mpi"]) == ["twosided", "rma", "gaspi"]
        times = {k: r.sim_time for k, r in out["mpi"].items()}
        assert len(set(times.values())) == 3  # substrates actually differ
        res = [r.extra["residual"] for r in out["mpi"].values()]
        assert all(v == pytest.approx(res[0], rel=1e-12) for v in res)

    def test_backend_scalar_sets_every_point(self):
        out = run_variants(run_cg, MARENOSTRUM4.with_cores(4), 1, PARAMS,
                           variants=("mpi",), backend="rma",
                           faults={"none": None})
        assert list(out["mpi"]) == ["none"]

    def test_combined_faults_backend_grid_uses_tuple_keys(self):
        out = run_variants(run_cg, MARENOSTRUM4.with_cores(2), 2, PARAMS,
                           variants=("mpi",),
                           faults={"none": None, "mild": FaultPlan.mild()},
                           backend=["twosided", "gaspi"])
        assert list(out["mpi"]) == [
            ("none", "twosided"), ("none", "gaspi"),
            ("mild", "twosided"), ("mild", "gaspi"),
        ]


class TestFaults:
    def test_exact_under_severe_faults(self):
        """Retransmission keeps collectives exactly-once: numerics are
        bit-identical to the fault-free run even under heavy loss."""
        for backend in ("twosided", "rma", "gaspi"):
            spec = spec_for(backend, cores=4, n_nodes=2,
                            faults=FaultPlan.severe(), seed=5)
            res = run_cg(spec, PARAMS, collect_solution=True)
            assert res.extra["fault_injected"] > 0
            assert np.allclose(res.extra["solution"], REF_X, rtol=1e-9)

    def test_faulted_run_pure_in_plan_and_seed(self):
        spec = spec_for("gaspi", cores=4, n_nodes=2,
                        faults=FaultPlan.severe(), seed=7)
        a, b = run_cg(spec, PARAMS), run_cg(spec, PARAMS)
        assert a.sim_time == b.sim_time
        assert a.extra["residual"] == b.extra["residual"]
        assert a.extra["fault_injected"] == b.extra["fault_injected"]


class TestEventuallyConsistentMode:
    def test_ec_records_missing_and_recovers_exact_residual(self):
        params = CGParams(n=48, iterations=6, staleness=2)
        res = run_cg(spec_for("gaspi"), params)
        # the partial reductions really did proceed without stragglers...
        assert res.extra["ec_missing"] > 0
        # ...and the post-fence residual is still a well-defined finite
        # number every rank agrees on (exactness restored at the fence)
        assert np.isfinite(res.extra["residual"])

    def test_ec_zero_staleness_matches_exact_path(self):
        exact = run_cg(spec_for("gaspi"), PARAMS).extra["residual"]
        assert exact == pytest.approx(REF_RS, rel=1e-9)

    def test_staleness_requires_gaspi_backend(self):
        params = CGParams(n=48, iterations=2, staleness=1)
        with pytest.raises(ValueError, match="backend='gaspi'"):
            run_cg(spec_for("twosided"), params)


class TestValidation:
    def test_hybrid_variants_rejected(self):
        spec = JobSpec(machine=MARENOSTRUM4.with_cores(4), n_nodes=1,
                       variant="tampi")
        with pytest.raises(VariantError, match="variant='mpi'"):
            run_cg(spec, PARAMS)

    def test_indivisible_problem_rejected(self):
        with pytest.raises(ValueError, match="divide evenly"):
            run_cg(spec_for("twosided", cores=5), CGParams(n=48))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            CGParams(n=0)
        with pytest.raises(ValueError):
            CGParams(staleness=-1)

    def test_collect_solution_needs_data_mode(self):
        params = CGParams(n=48, iterations=2, compute_data=False)
        with pytest.raises(ValueError, match="compute_data"):
            run_cg(spec_for("twosided"), params, collect_solution=True)


class TestPerf:
    def test_perf_mode_attaches_metrics_and_coll_spans(self):
        res = run_cg(spec_for("gaspi", perf=True), PARAMS)
        assert any(k.startswith("perf_") for k in res.extra)
