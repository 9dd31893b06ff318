"""Integration tests: Gauss–Seidel variants vs the sequential reference."""

import numpy as np
import pytest

from repro.apps.gauss_seidel import GSParams, gs_reference, run_gauss_seidel
from repro.apps.gauss_seidel.common import (
    gs_sweep_block,
    initial_grid,
    partition_rows,
)
from repro.apps.gauss_seidel.runner import run_gauss_seidel_steady
from repro.apps.gauss_seidel.storage import RankStorage
from repro.harness import JobSpec, MARENOSTRUM4, CTE_AMD
from repro.network import Extent

MACH4 = MARENOSTRUM4.with_cores(4)


class TestKernel:
    def test_blocked_sweep_equals_whole_row_sweep(self):
        rng = np.random.default_rng(0)
        A1 = rng.random((8, 16))
        A2 = A1.copy()
        top, bottom = rng.random(16), rng.random(16)
        side = np.zeros(8)
        gs_sweep_block(A1, top, bottom, side, side)
        # same sweep, columns split into two blocks
        old_right = A2[:, 8].copy()
        gs_sweep_block(A2[:, :8], top[:8], bottom[:8], side, old_right)
        gs_sweep_block(A2[:, 8:], top[8:], bottom[8:], A2[:, 7], side)
        assert np.array_equal(A1, A2)

    def test_sweep_moves_heat_downward(self):
        A = np.zeros((4, 4))
        gs_sweep_block(A, np.ones(4), np.zeros(4), np.zeros(4), np.zeros(4))
        assert A[0].max() > A[3].max() > 0

    def test_partition_rows(self):
        assert partition_rows(10, 3) == [(0, 4), (4, 7), (7, 10)]
        with pytest.raises(ValueError):
            partition_rows(2, 3)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GSParams(rows=8, cols=10, timesteps=1, block_size=3)


class TestNumericalEquivalence:
    @pytest.fixture(scope="class")
    def params(self):
        return GSParams(rows=48, cols=32, timesteps=4, block_size=8)

    @pytest.fixture(scope="class")
    def reference(self, params):
        return gs_reference(params, initial_grid(params))

    @pytest.mark.parametrize("variant", ["mpi", "tampi", "tagaspi"])
    def test_variant_matches_reference_exactly(self, params, reference, variant):
        spec = JobSpec(machine=MACH4, n_nodes=2, variant=variant, poll_period_us=50)
        res = run_gauss_seidel(spec, params, collect_grid=True)
        assert np.array_equal(res.extra["grid"], reference)

    @pytest.mark.parametrize("variant", ["tampi", "tagaspi"])
    def test_uneven_rows_and_more_ranks(self, variant):
        params = GSParams(rows=50, cols=24, timesteps=3, block_size=8)
        ref = gs_reference(params, initial_grid(params))
        spec = JobSpec(machine=MACH4, n_nodes=3, variant=variant, poll_period_us=50)
        res = run_gauss_seidel(spec, params, collect_grid=True)
        assert np.array_equal(res.extra["grid"], ref)

    def test_single_node_degenerate(self):
        params = GSParams(rows=16, cols=16, timesteps=2, block_size=8)
        ref = gs_reference(params, initial_grid(params))
        spec = JobSpec(machine=MACH4, n_nodes=1, variant="tagaspi", poll_period_us=50)
        res = run_gauss_seidel(spec, params, collect_grid=True)
        assert np.array_equal(res.extra["grid"], ref)

    def test_no_overwrite_hazard(self):
        """The reverse halo exchange transitively orders each remote write
        after the consumption of the previous one, so the TAGASPI variant
        needs no ack notifications (variants.py docstring). Many timesteps
        with a tiny grid maximize reuse pressure."""
        params = GSParams(rows=12, cols=8, timesteps=10, block_size=4)
        ref = gs_reference(params, initial_grid(params))
        spec = JobSpec(machine=MACH4, n_nodes=3, variant="tagaspi", poll_period_us=50)
        res = run_gauss_seidel(spec, params, collect_grid=True)
        assert np.array_equal(res.extra["grid"], ref)


class TestModelMode:
    def test_model_mode_runs_without_cell_data(self):
        params = GSParams(rows=256, cols=256, timesteps=3, block_size=64,
                          compute_data=False)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="tagaspi", poll_period_us=50)
        res = run_gauss_seidel(spec, params)
        assert res.throughput > 0
        assert res.sim_time > 0

    def test_collect_grid_requires_data_mode(self):
        params = GSParams(rows=64, cols=64, timesteps=2, block_size=32,
                          compute_data=False)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi")
        with pytest.raises(ValueError):
            run_gauss_seidel(spec, params, collect_grid=True)

    def test_steady_state_excludes_fill(self):
        params = GSParams(rows=256, cols=512, timesteps=6, block_size=64,
                          compute_data=False)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi")
        steady = run_gauss_seidel_steady(spec, params, warm_steps=3)
        full = run_gauss_seidel(spec, params)
        # steady-state throughput is at least the whole-run throughput
        # (which still pays the pipeline fill)
        assert steady.throughput >= full.throughput * 0.99

    def test_storage_allocates_only_the_rows_a_rank_uses(self):
        """Model mode owns no array: the two boundary rows a rank sends and
        its two halos are Extents, sizes without contents. The fixed global
        boundaries are values that only the kernel reads, so they live in
        the data-mode halos alone."""
        params = GSParams(rows=64, cols=32, timesteps=1, block_size=8,
                          top_boundary=2.5, compute_data=False)
        parts = partition_rows(params.rows, 4)
        st = [RankStorage(params, r, 4, parts[r], None) for r in range(4)]

        def owned_bytes(s):
            owners = []
            for a in vars(s).values():
                if isinstance(a, np.ndarray):
                    base = a if a.base is None else a.base
                    if not any(base is o for o in owners):
                        owners.append(base)
            return sum(o.nbytes for o in owners)

        cols = params.cols
        for s in st:
            assert owned_bytes(s) == 0
            sizes = [(type(b), b.size, b.dtype)
                     for b in (s._boundary, s.halo_top, s.halo_bottom)]
            assert sizes == [(Extent, 2 * cols, np.float64),
                             (Extent, cols, np.float64),
                             (Extent, cols, np.float64)]
            assert s.local_segment_array() is s._boundary
            assert not hasattr(s, "side_zeros")

        data = GSParams(rows=64, cols=32, timesteps=1, block_size=8,
                        top_boundary=2.5)
        grid = initial_grid(data)
        dst = [RankStorage(data, r, 4, parts[r], grid) for r in range(4)]
        assert np.array_equal(dst[0].halo_top, np.full(cols, 2.5))
        assert np.array_equal(dst[-1].halo_bottom, np.zeros(cols))
        assert not dst[1].halo_top.any() and not dst[2].halo_bottom.any()

    def test_data_mode_storage_unchanged(self):
        params = GSParams(rows=48, cols=32, timesteps=1, block_size=8,
                          top_boundary=2.5)
        grid = initial_grid(params)
        parts = partition_rows(params.rows, 3)
        st = [RankStorage(params, r, 3, parts[r], grid) for r in range(3)]
        for s, (r0, r1) in zip(st, parts):
            assert s.data_mode and s.local_segment_array() is s.local
            assert np.array_equal(s.local, grid[r0:r1])
            assert not np.shares_memory(s.local, grid)
        assert np.array_equal(st[0].halo_top, np.full(params.cols, 2.5))
        assert np.array_equal(st[-1].halo_bottom, np.zeros(params.cols))
        assert not st[1].halo_top.any() and not st[1].halo_bottom.any()

    def test_determinism(self):
        params = GSParams(rows=128, cols=128, timesteps=3, block_size=32,
                          compute_data=False)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="tampi", seed=5)
        a = run_gauss_seidel(spec, params)
        b = run_gauss_seidel(JobSpec(machine=MACH4, n_nodes=2, variant="tampi",
                                     seed=5), params)
        assert a.sim_time == b.sim_time
