"""Integration tests: miniAMR mesh machinery and the three variants."""

import numpy as np
import pytest

from repro.apps.miniamr import (
    AMRParams,
    build_mesh_schedule,
    reference_evolution,
    run_miniamr,
)
from repro.apps.miniamr.mesh import build_mesh, make_objects, source_of
from repro.apps.miniamr.plan import build_epoch_plans
from repro.harness import JobSpec, MARENOSTRUM4

MACH4 = MARENOSTRUM4.with_cores(4)

SMALL = dict(nx=2, ny=2, nz=2, max_level=1, timesteps=6, refine_every=3,
             variables=4, stages=2, n_objects=1)


class TestMesh:
    @pytest.fixture(scope="class")
    def mesh(self):
        params = AMRParams(**SMALL)
        return build_mesh(params, make_objects(params), epoch=0)

    def test_leaves_cover_domain_exactly(self, mesh):
        """Leaf volumes (in level-0 block units) sum to the domain volume."""
        p = mesh.params
        vol = sum(0.5 ** (3 * b[0]) for b in mesh.leaves)
        assert vol == pytest.approx(p.nx * p.ny * p.nz)

    def test_two_to_one_balance(self, mesh):
        for b in mesh.order:
            for f in range(6):
                for nb in mesh.face_neighbors(b, f):
                    assert abs(nb[0] - b[0]) <= 1

    def test_pairs_are_symmetric(self, mesh):
        directed = set((a, b) for a, b, _ in mesh.pairs)
        for (a, b) in directed:
            assert (b, a) in directed

    def test_partition_is_balanced(self, mesh):
        mesh.partition(4)
        counts = [len(mesh.local_blocks(r)) for r in range(4)]
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == mesh.n_blocks

    def test_source_of_identity_and_ancestry(self):
        params = AMRParams(**SMALL)
        sched = build_mesh_schedule(params, 2)
        prev, cur = sched.meshes[0], sched.meshes[-1]
        for b in cur.order:
            src = source_of(prev, b)
            assert src is not None
            assert src in prev.leaves

    def test_schedule_is_deterministic(self):
        params = AMRParams(**SMALL)
        a = build_mesh_schedule(params, 2)
        b = build_mesh_schedule(params, 2)
        assert [m.leaves for m in a.meshes] == [m.leaves for m in b.meshes]
        assert a.moves == b.moves


class TestPlans:
    def test_agreement_slots_are_consistent(self):
        params = AMRParams(**SMALL)
        sched = build_mesh_schedule(params, 3)
        mesh = sched.meshes[0]
        plans = build_epoch_plans(mesh, 3, 0)
        for r, plan in enumerate(plans):
            for op in plan.out_pairs:
                peer = plans[op.dst_rank]
                ip = peer.in_pairs[op.remote_slot]
                assert ip.gidx == op.gidx
                assert ip.sender_ack_id == op.ack_id
                assert ip.src_rank == r

    def test_gather_sources_cover_all_cross_and_local_faces(self):
        params = AMRParams(**SMALL)
        sched = build_mesh_schedule(params, 2)
        mesh = sched.meshes[0]
        plans = build_epoch_plans(mesh, 2, 0)
        total_sources = sum(len(v) for p in plans for v in p.sources.values())
        assert total_sources == len(mesh.pairs)


class TestEndToEnd:
    @pytest.mark.parametrize("variant", ["mpi", "tampi", "tagaspi"])
    def test_variant_matches_reference_exactly(self, variant):
        params = AMRParams(**SMALL)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant=variant,
                       ranks_per_node=1 if variant != "mpi" else 4,
                       poll_period_us=50)
        sched = build_mesh_schedule(params, spec.n_ranks)
        ref = reference_evolution(sched)
        res = run_miniamr(spec, params, schedule=sched, collect_values=True)
        vals = res.extra["values"]
        assert set(vals) == set(ref)
        for b in ref:
            assert np.array_equal(vals[b], ref[b]), b

    def test_refinement_time_accounted(self):
        params = AMRParams(**SMALL)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="tagaspi",
                       poll_period_us=50)
        res = run_miniamr(spec, params)
        assert res.extra["refine_time"] > 0
        assert res.throughput_nr > res.throughput

    def test_more_variables_more_throughput(self):
        """Fig. 12 mechanism: higher variable counts amortize per-message
        overheads, so throughput (GUpdates/s) rises with V for hybrids."""
        def thr(v):
            params = AMRParams(nx=2, ny=2, nz=2, max_level=1, timesteps=4,
                               refine_every=4, variables=v, stages=2,
                               cell_dim=8, compute_data=False)
            spec = JobSpec(machine=MARENOSTRUM4, n_nodes=2, variant="tagaspi",
                           ranks_per_node=2, poll_period_us=50)
            return run_miniamr(spec, params).throughput

        assert thr(32) > thr(8)

    def test_collect_values_needs_data_mode(self):
        """A cost-model run computes no block values: asking for them is
        refused at entry instead of returning the initial ones."""
        params = AMRParams(**dict(SMALL, compute_data=False))
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="mpi",
                       ranks_per_node=4)
        with pytest.raises(ValueError, match="compute_data"):
            run_miniamr(spec, params, collect_values=True)

    @pytest.mark.parametrize("variant", ["mpi", "tampi", "tagaspi"])
    def test_cost_model_buffers_are_content_free(self, variant):
        """Without data the value and face buffers hold only sizes, and
        the run's simulated time equals the data-mode run's."""
        from repro.apps.miniamr.variants import AMRJobState
        from repro.harness.runner import build_job
        from repro.network.message import Extent

        spec = JobSpec(machine=MACH4, n_nodes=2, variant=variant,
                       ranks_per_node=1 if variant != "mpi" else 4,
                       poll_period_us=50)
        model = AMRParams(**dict(SMALL, compute_data=False))
        state = AMRJobState(build_job(spec), model,
                            build_mesh_schedule(model, spec.n_ranks))
        rows = [row for per_rank in state.vals for bufs in per_rank
                for buf in bufs for row in buf]
        rows += [row for per_rank in state.recv for buf in per_rank
                 for row in buf]
        assert rows and all(isinstance(r, Extent) and r.size == 4
                            for r in rows)
        data = run_miniamr(spec, AMRParams(**SMALL)).sim_time
        assert run_miniamr(spec, model).sim_time == data

    def test_tagaspi_uses_both_libraries(self):
        """§VI-B interop: the TAGASPI variant migrates data with TAMPI."""
        params = AMRParams(**SMALL)
        spec = JobSpec(machine=MACH4, n_nodes=2, variant="tagaspi",
                       poll_period_us=50)
        sched = build_mesh_schedule(params, spec.n_ranks)
        assert any(sched.moves), "schedule has no migrations; weaken test input"
        res = run_miniamr(spec, params, schedule=sched)
        assert res.extra["time_in_mpi"] > 0  # TAMPI moved blocks over MPI


def _schedule_digest(params, n_ranks):
    """sha256 over everything a job consumes of the precomputed mesh
    timeline: each mesh's order, owners and face pairs, the block moves,
    and every rank's epoch plan."""
    import hashlib

    sched = build_mesh_schedule(params, n_ranks)
    h = hashlib.sha256()

    def put(obj):
        h.update(repr(obj).encode())
        h.update(b"\n")

    for mesh in sched.meshes:
        put(list(mesh.order))
        put([mesh.owner[b] for b in mesh.order])
        put(len(mesh.owner))
        put([tuple(p) for p in mesh.pairs])
    put([[tuple(m) for m in moves] for moves in sched.moves])
    for e, mesh in enumerate(sched.meshes):
        for plan in build_epoch_plans(mesh, n_ranks, e):
            put((plan.rank, plan.epoch, list(plan.blocks)))
            put([(b, plan.slot_of[b]) for b in plan.blocks])
            put(len(plan.slot_of))
            put([(p.gidx, p.src, p.dst_rank, p.src_slot, p.remote_slot,
                  p.ack_id) for p in plan.out_pairs])
            put([(p.gidx, p.src, p.dst, p.src_rank, p.slot, p.sender_ack_id)
                 for p in plan.in_pairs])
            put([(b, [(s.kind, s.slot) for s in plan.sources.get(b, [])])
                 for b in plan.blocks])
    return h.hexdigest()


#: the benchmark's miniAMR job shape and Fig. 12's ``BASE``: the mesh
#: depends only on the geometry, epochs and seed, which the two share, so
#: their digests coincide at equal rank counts
_BENCH_AMR = AMRParams(timesteps=2, refine_every=1, compute_data=False)
_FIG12_AMR = AMRParams(nx=4, ny=4, nz=4, max_level=2, cell_dim=8,
                       variables=20, timesteps=8, refine_every=4, stages=2,
                       compute_data=False)


@pytest.mark.parametrize("params, n_ranks, digest", [
    (_BENCH_AMR, 32, "efc0978e95ccb0988fea1489c1437b8ffe0726a8883f7933d884247a93f85e29"),
    (_BENCH_AMR, 4, "f9d2ab436717ec1b668208846b0925ef8748abd54a8cd29befc94e27303cb9a6"),
    (_FIG12_AMR, 32, "efc0978e95ccb0988fea1489c1437b8ffe0726a8883f7933d884247a93f85e29"),
], ids=["bench-32", "bench-4", "fig12-32"])
def test_schedule_and_plans_digest_is_pinned(params, n_ranks, digest):
    """The mesh schedule and the agreement-phase plans are pure functions
    of (params, n_ranks); any change to how they are computed must leave
    every order, owner, pair, move, slot and gather source where it was."""
    assert _schedule_digest(params, n_ranks) == digest


class TestParamsValidation:
    def test_amr_params_rejects_nonsense(self):
        with pytest.raises(ValueError):
            AMRParams(timesteps=0)
        with pytest.raises(ValueError):
            AMRParams(max_level=-1)

    def test_amr_derived_quantities(self):
        p = AMRParams(variables=10, cell_dim=4, timesteps=9, refine_every=4)
        assert p.n_epochs == 3
        assert p.face_bytes() == 10 * 16 * 8
        assert p.block_bytes() == 10 * 64 * 8
        assert p.cell_updates_per_block() == 640
