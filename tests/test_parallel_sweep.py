"""Tests for repro.harness.parallel: serial-vs-parallel sweep determinism
and the failure contract (docs/harness.md)."""

import pytest

from repro.apps.gauss_seidel import GSParams
from repro.apps.gauss_seidel.runner import run_gauss_seidel
from repro.harness import (
    JobSpec,
    MARENOSTRUM4,
    SweepExecutor,
    SweepPoint,
    run_variants,
)

MACH = MARENOSTRUM4.with_cores(2)
PARAMS = GSParams(rows=64, cols=64, timesteps=2, block_size=32)


def _spec(**kw):
    base = dict(machine=MACH, n_nodes=2, variant="tagaspi", poll_period_us=50)
    base.update(kw)
    return JobSpec(**base)


def _points(variants=("mpi", "tampi", "tagaspi"), **spec_kw):
    return [SweepPoint(run_gauss_seidel, _spec(variant=v, **spec_kw), PARAMS,
                       label=(v,))
            for v in variants]


def _boom(spec, params):
    raise ValueError(f"boom on {spec.variant}")


class TestSerialParallelDeterminism:
    def test_parallel_results_identical_to_serial(self):
        points = _points()
        serial = SweepExecutor(workers=1).map(points)
        parallel = SweepExecutor(workers=2).map(points)
        assert len(serial) == len(parallel) == len(points)
        for s, p in zip(serial, parallel):
            assert s == p
            assert s.extra == p.extra  # full metrics dict, not just headline

    def test_run_variants_workers_matches_serial(self):
        serial = run_variants(run_gauss_seidel, MACH, 2, PARAMS, workers=1)
        parallel = run_variants(run_gauss_seidel, MACH, 2, PARAMS, workers=2)
        assert serial == parallel


class TestErrorCapture:
    def _mixed_points(self):
        ok = _points(variants=("mpi",))[0]
        bad = SweepPoint(_boom, _spec(variant="tampi"), PARAMS,
                         label=("tampi", "bad"))
        ok2 = _points(variants=("tagaspi",))[0]
        return [ok, bad, ok2]

    def test_raise_surfaces_original_after_completion(self):
        """The first failing point, in point order, raises its original
        exception, the same at one worker and at two."""
        later = SweepPoint(_boom, _spec(variant="tagaspi"), PARAMS,
                           label=("tagaspi", "bad"))
        raised = []
        for workers in (1, 2):
            with pytest.raises(ValueError, match="boom on tampi") as info:
                SweepExecutor(workers=workers).map(
                    self._mixed_points() + [later])
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] == (ValueError, "boom on tampi")

    def test_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)
