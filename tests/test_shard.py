"""Sharded conservative-time engine (repro.sim.shard): eligibility,
partitioning, and the bit-identity contract vs. the single-engine path."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.gauss_seidel.common import GSParams
from repro.apps.gauss_seidel.runner import run_gauss_seidel
from repro.harness import JobSpec, MARENOSTRUM4
from repro.sim.shard import (
    partition_nodes,
    resolve_shards,
    run_sharded_job,
    shard_eligible,
)

MACH4 = MARENOSTRUM4.with_cores(4)


def _snap(res):
    """Full numeric snapshot of a run — byte-identical means equal here."""
    scalars = tuple(sorted(
        (k, v) for k, v in res.extra.items() if isinstance(v, (int, float))))
    return (res.sim_time, res.throughput, scalars)


def _spec(n_nodes=6, seed=3, **kw):
    kw.setdefault("variant", "mpi")
    return JobSpec(machine=MACH4, n_nodes=n_nodes, seed=seed, **kw)


def _params(**kw):
    base = dict(rows=48, cols=32, timesteps=3, block_size=8,
                compute_data=False)
    base.update(kw)
    return GSParams(**base)


class TestPartitioning:
    def test_partition_nodes_contiguous_and_balanced(self):
        owner = partition_nodes(10, 3)
        assert len(owner) == 10
        assert owner == sorted(owner)  # contiguous blocks
        counts = [owner.count(s) for s in range(3)]
        assert max(counts) - min(counts) <= 1
        assert set(owner) == {0, 1, 2}

    def test_partition_more_shards_than_nodes_rejected_by_resolver(self):
        # resolve_shards caps at n_nodes so every shard owns >= 1 node
        spec = _spec(n_nodes=2, shards=8)
        assert resolve_shards(spec) == 2

    def test_eligibility_gates(self):
        assert shard_eligible(_spec())
        # tracing, analysis, perf, and faults are per-message observers the
        # conservative windows cannot replay — all fall back to serial
        from repro.faults import FaultPlan
        from repro.trace import Tracer

        assert not shard_eligible(_spec(variant="tampi"))
        assert not shard_eligible(_spec(), tracer=Tracer(progress_every=None))
        assert not shard_eligible(_spec(check="strict"))
        assert not shard_eligible(_spec(perf=True))
        assert not shard_eligible(_spec(faults=FaultPlan(drop_prob=0.01)))
        # an explicitly empty plan is not an observer
        assert shard_eligible(_spec(faults=None))

    def test_resolve_zero_without_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(_spec(shards=None)) == 0
        assert resolve_shards(_spec(shards=0)) == 0
        assert resolve_shards(_spec(shards=3)) == 3
        # shards requested but config cannot shard -> serial fallback
        assert resolve_shards(_spec(variant="tampi", shards=3)) == 0
        # REPRO_SHARDS=N > 1 is the default for specs that do not say
        monkeypatch.setenv("REPRO_SHARDS", "1")
        assert resolve_shards(_spec(shards=None)) == 0
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert resolve_shards(_spec(shards=None)) == 3
        assert resolve_shards(_spec(shards=0)) == 0
        assert resolve_shards(_spec(variant="tampi", shards=None)) == 0

    def test_shards_excluded_from_cache_key(self):
        from repro.harness.parallel import cache_key

        params = _params()
        a = cache_key(run_gauss_seidel, _spec(shards=None), params, {})
        b = cache_key(run_gauss_seidel, _spec(shards=4), params, {})
        assert a == b


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_matches_serial(self, shards):
        spec = _spec()
        params = _params()
        base = _snap(run_gauss_seidel(spec, params))
        got = _snap(run_gauss_seidel(
            dataclasses.replace(spec, shards=shards), params))
        assert got == base

    @given(seed=st.sampled_from([1, 7, 42, None]),
           shards=st.sampled_from([2, 3, 4]),
           n_nodes=st.sampled_from([4, 6]))
    @settings(max_examples=8, deadline=None)
    def test_sharded_matches_serial_property(self, seed, shards, n_nodes):
        spec = _spec(n_nodes=n_nodes, seed=seed)
        params = _params(rows=32, timesteps=2)
        base = _snap(run_gauss_seidel(spec, params))
        got = _snap(run_gauss_seidel(
            dataclasses.replace(spec, shards=shards), params))
        assert got == base

    def test_data_mode_grids_match(self):
        spec = _spec(n_nodes=4)
        params = _params(compute_data=True, timesteps=2)
        base = _snap(run_gauss_seidel(spec, params))
        got = _snap(run_gauss_seidel(
            dataclasses.replace(spec, shards=2), params))
        assert got == base

    def test_fig09_shape_reduced_smoke(self):
        """Reduced-size twin of the bench's 256x48 Marenostrum point: the
        full 48-cores-per-node shape, 4 shards, vs the single engine."""
        from repro.harness import MARENOSTRUM4 as MN4

        spec = JobSpec(machine=MN4, n_nodes=4, variant="mpi", seed=11)
        params = _params(rows=384, timesteps=2, cols=32)  # 192 ranks
        base = _snap(run_gauss_seidel(spec, params))
        got = _snap(run_gauss_seidel(
            dataclasses.replace(spec, shards=4), params))
        assert got == base

    def test_observer_fallback_configs_match_serial(self):
        """Configs the shard engine cannot run (faults / strict / traced)
        still honour ``shards=N`` by falling back — byte-identically."""
        from repro.faults import FaultPlan

        params = _params(timesteps=2)
        for kw in ({"faults": FaultPlan(drop_prob=0.05)},
                   {"check": "strict"}):
            spec = _spec(n_nodes=4, **kw)
            base = _snap(run_gauss_seidel(spec, params))
            got = _snap(run_gauss_seidel(
                dataclasses.replace(spec, shards=2), params))
            assert got == base, kw

    def test_traced_config_matches_serial(self):
        from repro.trace import Tracer

        params = _params(timesteps=2)
        spec = _spec(n_nodes=4)
        base = _snap(run_gauss_seidel(spec, params, tracer=Tracer(
            progress_every=None)))
        got = _snap(run_gauss_seidel(
            dataclasses.replace(spec, shards=2), params,
            tracer=Tracer(progress_every=None)))
        assert got == base

    def test_env_selection(self, monkeypatch):
        """REPRO_SHARDS picks up eligible jobs."""
        monkeypatch.setenv("REPRO_SHARDS", "2")
        params = _params(timesteps=2)
        base = _snap(run_gauss_seidel(_spec(n_nodes=4), params))
        monkeypatch.delenv("REPRO_SHARDS")
        assert _snap(run_gauss_seidel(_spec(n_nodes=4), params)) == base


class TestWindowObservations:
    def test_observer_log_is_deterministic(self):
        """Mid-run queue_depth/peek at every shard boundary replay exactly
        across repeated sharded runs."""
        from repro.apps.gauss_seidel.runner import _run_sharded

        params = _params(timesteps=2)
        spec = dataclasses.replace(_spec(n_nodes=4), shards=2)

        def run():
            log = []

            def obs(round_idx, t_end, states):
                log.append((round_idx, t_end,
                            tuple((s["peek"], s["queue_depth"], s["now"],
                                   s["live"]) for s in states)))

            res = _run_sharded(spec, params, 2, observer=obs)
            return _snap(res), log

        (snap_a, log_a), (snap_b, log_b) = run(), run()
        assert snap_a == snap_b
        assert log_a == log_b
        assert len(log_a) >= 2  # the job really crossed window boundaries
        # windows advance monotonically and every shard makes progress
        t_ends = [t for _, t, _ in log_a]
        assert t_ends == sorted(t_ends)

    def test_deadlock_reported(self):
        """A rank waiting on a message nobody sends must fail loudly with
        the still-alive set, not hang the barrier loop."""

        def make_procs(job, local_ranks):
            def stuck(drv):
                req = yield from drv.irecv(None, 0, 7)
                yield from drv.wait(req)

            def quiet(drv):
                yield from drv.compute(1e-6)

            drvs = [job.drivers[r] for r in local_ranks]
            return [d.spawn(stuck if d.mpi.rank == job.spec.n_ranks - 1
                            else quiet) for d in drvs]

        from repro.sim import SimulationError

        with pytest.raises(SimulationError, match="deadlocked"):
            run_sharded_job(_spec(n_nodes=2), make_procs, 2)


class TestWireBatchToggle:
    """App send loops routed through ``Cluster.send_batch`` must be
    bit-identical to the per-message ``Cluster.send`` path (the toggle is
    a test-side patch of ``send_batch``, not a product switch)."""

    def _run_both(self, monkeypatch, fn):
        import numpy as np

        from repro.network import Cluster

        def scalar_send_batch(cluster, msgs, depart_delay=0.0):
            delays = np.broadcast_to(np.asarray(depart_delay, dtype=float),
                                     (len(msgs),))
            return np.array([cluster.send(m, float(d))
                             for m, d in zip(msgs, delays)])

        batched = fn()
        monkeypatch.setattr(Cluster, "send_batch", scalar_send_batch)
        return batched, fn()

    def test_gs_halo_exchange(self, monkeypatch):
        spec = _spec(n_nodes=4)
        params = _params(compute_data=True, timesteps=2)
        a, b = self._run_both(
            monkeypatch, lambda: _snap(run_gauss_seidel(spec, params)))
        assert a == b

    def test_streaming_writer(self, monkeypatch):
        from repro.apps.streaming import StreamingParams, run_streaming

        spec = _spec(n_nodes=3)
        params = StreamingParams(chunks=3, elements_per_chunk=512,
                                 block_size=128)
        a, b = self._run_both(
            monkeypatch, lambda: _snap(run_streaming(spec, params)))
        assert a == b

    def test_isend_batch_unit_matches_isend(self):
        """A 1-message batch reproduces a plain isend bit-for-bit (same
        grant arithmetic), so routing the streaming writer through the
        batch entry point changed nothing."""
        import numpy as np

        from repro.harness.runner import build_job

        def run(use_batch):
            job = build_job(_spec(n_nodes=2))
            drv0, drv1 = job.drivers[0], job.drivers[1]
            out = {}

            def sender(drv):
                buf = np.arange(8.0)
                if use_batch:
                    reqs = yield from drv.isend_batch([buf], 1, [5])
                else:
                    reqs = [(yield from drv.isend(buf, 1, 5))]
                yield from drv.waitall(reqs)
                out["send_done"] = drv.engine.now

            def receiver(drv):
                buf = np.empty(8)
                req = yield from drv.irecv(buf, 0, 5)
                yield from drv.wait(req)
                out["recv_done"] = drv.engine.now

            sim = job.run([drv0.spawn(sender), drv1.spawn(receiver)])
            return sim, out["send_done"], out["recv_done"]

        assert run(True) == run(False)

    def test_isend_batch_rendezvous_falls_back(self):
        """Oversized messages cannot batch; the call degrades to plain
        per-message isends and the payload still arrives intact."""
        import numpy as np

        from repro.harness.runner import build_job

        job = build_job(_spec(n_nodes=2))
        big = np.arange(4096.0)  # 32 KiB > eager threshold
        got = np.empty_like(big)

        def sender(drv):
            reqs = yield from drv.isend_batch([big, big[:4]], 1, [1, 2])
            assert len(reqs) == 2
            yield from drv.waitall(reqs)

        def receiver(drv):
            small = np.empty(4)
            r1 = yield from drv.irecv(got, 0, 1)
            r2 = yield from drv.irecv(small, 0, 2)
            yield from drv.wait(r1)
            yield from drv.wait(r2)

        job.run([job.drivers[0].spawn(sender), job.drivers[1].spawn(receiver)])
        assert (got == big).all()
