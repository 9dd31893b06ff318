"""Unit tests for fabrics, topology, and message transport."""

import numpy as np
import pytest

from repro.sim import Engine, SimulationError
from repro.network import Cluster, Fabric, Message, OMNIPATH, INFINIBAND, scaled_fabric


def make_fabric(**kw):
    defaults = dict(
        name="t",
        latency=1e-6,
        bandwidth=1e9,
        intra_latency=1e-7,
        intra_bandwidth=4e9,
        sw={},
    )
    defaults.update(kw)
    return Fabric(**defaults)


class TestFabric:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_fabric(latency=-1.0)
        with pytest.raises(ValueError):
            make_fabric(bandwidth=0.0)

    def test_cost_lookup_with_default(self):
        f = make_fabric(sw={"mpi.call": 1e-6})
        assert f.cost("mpi.call") == 1e-6
        assert f.cost("missing", 7.0) == 7.0

    def test_serialization_time(self):
        f = make_fabric()
        assert f.serialization(1000, intra=False) == pytest.approx(1000 / 1e9)
        assert f.serialization(1000, intra=True) == pytest.approx(1000 / 4e9)

    def test_with_costs_overrides(self):
        f = make_fabric(sw={"a": 1.0})
        g = f.with_costs(a=2.0, b=3.0)
        assert g.cost("a") == 2.0 and g.cost("b") == 3.0
        assert f.cost("a") == 1.0  # original untouched

    def test_presets_have_required_keys(self):
        for fab in (OMNIPATH, INFINIBAND):
            for key in ("mpi.call", "mpi.eager_threshold", "gaspi.op",
                        "mpi.testsome_per_req", "gaspi.request_wait_base"):
                assert fab.cost(key, -1.0) > 0, f"{fab.name} missing {key}"

    def test_preset_asymmetry_matches_paper(self):
        # Omni-Path: MPI cheap, GASPI pays the ibverbs-emulation latency tax
        assert OMNIPATH.cost("mpi.call") < OMNIPATH.cost("gaspi.lat_extra") + 1e-6
        assert OMNIPATH.cost("gaspi.lat_extra") > 0
        # InfiniBand: GASPI native, Open MPI heavier + high jitter
        assert INFINIBAND.cost("gaspi.lat_extra") == 0.0
        assert INFINIBAND.cost("mpi.call") > OMNIPATH.cost("mpi.call")
        assert INFINIBAND.cost("mpi.jitter") > INFINIBAND.cost("gaspi.jitter")

    def test_scaled_fabric(self):
        f = scaled_fabric(OMNIPATH, latency_scale=2.0, bandwidth_scale=0.5)
        assert f.latency == pytest.approx(OMNIPATH.latency * 2)
        assert f.bandwidth == pytest.approx(OMNIPATH.bandwidth * 0.5)


class TestPlacement:
    def test_block_placement(self):
        eng = Engine()
        cl = Cluster(eng, 3, make_fabric())
        cl.place_ranks_block(6, 2)
        assert [cl.node_of(r) for r in range(6)] == [0, 0, 1, 1, 2, 2]
        assert cl.ranks_on_node(1) == [2, 3]

    def test_overflow_rejected(self):
        cl = Cluster(Engine(), 2, make_fabric())
        with pytest.raises(ValueError):
            cl.place_ranks_block(5, 2)

    def test_double_placement_rejected(self):
        cl = Cluster(Engine(), 1, make_fabric())
        cl.place_rank(0, 0)
        with pytest.raises(SimulationError):
            cl.place_rank(0, 0)

    def test_unplaced_rank_lookup_fails(self):
        cl = Cluster(Engine(), 1, make_fabric())
        with pytest.raises(SimulationError):
            cl.node_of(3)


class TestTransport:
    def _mk(self, fabric=None, nodes=2, ranks_per_node=1, n_ranks=None):
        eng = Engine()
        cl = Cluster(eng, nodes, fabric or make_fabric())
        cl.place_ranks_block(n_ranks or nodes * ranks_per_node, ranks_per_node)
        return eng, cl

    def test_delivery_invokes_endpoint(self):
        eng, cl = self._mk()
        got = []
        cl.register_endpoint(1, "test", got.append)
        msg = Message(0, 1, "test", "k", 1000)
        cl.send(msg)
        eng.run()
        assert got == [msg]
        assert msg.delivered_at > 0

    def test_remote_latency_includes_alpha_and_serialization(self):
        f = make_fabric(latency=1e-6, bandwidth=1e9)
        eng, cl = self._mk(f)
        cl.register_endpoint(1, "t", lambda m: None)
        msg = Message(0, 1, "t", "k", 10_000)
        local_done = cl.send(msg)
        eng.run()
        ser = 10_000 / 1e9
        assert local_done == pytest.approx(ser)
        # egress ser + latency + ingress ser
        assert msg.delivered_at == pytest.approx(ser + 1e-6 + ser)

    def test_intra_node_path_is_cheaper(self):
        eng, cl = self._mk(nodes=1, ranks_per_node=2)
        cl.register_endpoint(1, "t", lambda m: None)
        msg = Message(0, 1, "t", "k", 10_000)
        cl.send(msg)
        eng.run()
        intra_time = msg.delivered_at

        eng2 = Engine()
        cl2 = Cluster(eng2, 2, make_fabric())
        cl2.place_ranks_block(2, 1)
        cl2.register_endpoint(1, "t", lambda m: None)
        msg2 = Message(0, 1, "t", "k", 10_000)
        cl2.send(msg2)
        eng2.run()
        assert intra_time < msg2.delivered_at

    def test_fifo_per_channel(self):
        eng, cl = self._mk()
        order = []
        cl.register_endpoint(1, "t", lambda m: order.append(m.uid))
        msgs = [Message(0, 1, "t", "k", 100 * (10 - i)) for i in range(5)]
        for m in msgs:
            cl.send(m)
        eng.run()
        assert order == [m.uid for m in msgs]

    def test_egress_serialization_queues_messages(self):
        f = make_fabric(latency=0.0, bandwidth=1e6)  # 1 MB/s: serialization dominates
        eng, cl = self._mk(f)
        times = []
        cl.register_endpoint(1, "t", lambda m: times.append(eng.now))
        for _ in range(3):
            cl.send(Message(0, 1, "t", "k", 1000))  # 1 ms each
        eng.run()
        # ingress also serializes, so arrivals are spaced by >= 1 ms
        assert times[1] - times[0] >= 0.001 - 1e-12
        assert times[2] - times[1] >= 0.001 - 1e-12

    def test_depart_delay_postpones_injection(self):
        eng, cl = self._mk()
        cl.register_endpoint(1, "t", lambda m: None)
        m1 = Message(0, 1, "t", "k", 100)
        m2 = Message(0, 1, "t", "k", 100)
        cl.send(m1)
        cl.send(m2, depart_delay=1.0)
        eng.run()
        assert m2.injected_at == pytest.approx(1.0)
        assert m2.delivered_at > m1.delivered_at

    def test_missing_endpoint_raises(self):
        eng, cl = self._mk()
        cl.send(Message(0, 1, "nope", "k", 10))
        with pytest.raises(SimulationError, match="endpoint"):
            eng.run()

    def test_stats(self):
        eng, cl = self._mk()
        cl.register_endpoint(1, "t", lambda m: None)
        cl.send(Message(0, 1, "t", "k", 1000))
        cl.send(Message(0, 1, "t", "k", 10))  # control-sized
        eng.run()
        assert cl.stats.messages == 2
        assert cl.stats.bytes == 1010
        assert cl.stats.control_messages == 1
        assert cl.stats.mean_transit() > 0

    def test_jitter_requires_rng_and_is_reproducible(self):
        f = make_fabric(sw={"t.jitter": 0.5})

        def transit(seed):
            eng = Engine()
            rng = np.random.default_rng(seed)
            cl = Cluster(eng, 2, f, rng=rng)
            cl.place_ranks_block(2, 1)
            out = []
            cl.register_endpoint(1, "t", lambda m: out.append(eng.now))
            for _ in range(10):
                cl.send(Message(0, 1, "t", "k", 10))
            eng.run()
            return out

        a, b, c = transit(1), transit(1), transit(2)
        assert a == b
        assert a != c

    def test_no_rng_means_no_jitter(self):
        f = make_fabric(sw={"t.jitter": 0.9})
        eng = Engine()
        cl = Cluster(eng, 2, f)
        cl.place_ranks_block(2, 1)
        out = []
        cl.register_endpoint(1, "t", lambda m: out.append(eng.now))
        cl.send(Message(0, 1, "t", "k", 0))
        eng.run()
        assert out[0] == pytest.approx(1e-6)  # pure alpha


class TestBatchWirePath:
    """The vectorized wire path (repro.network.batch) must be observably
    bit-identical to a scalar ``send()`` loop — times, stats, RNG stream,
    delivery order — with the scalar path on the object engine as oracle."""

    SIZES = [0, 1, 10, 64, 65, 1000, 4096, 10_000, 262_144, 1 << 20]

    def test_serialization_batch_equals_scalar_everywhere(self):
        # sweep both machine fabrics across the eager/rendezvous boundary
        # and several orders of magnitude; equality must be exact, not
        # approximate — the batched wire path inherits its bit-exactness
        # from this method
        for fab in (OMNIPATH, INFINIBAND, make_fabric(msg_overhead=3e-7)):
            thr = int(fab.cost("mpi.eager_threshold", 16384))
            sizes = sorted(set(self.SIZES + [thr - 1, thr, thr + 1]))
            for intra in (False, True):
                batch = fab.serialization_batch(sizes, intra=intra)
                scalar = [fab.serialization(s, intra=intra) for s in sizes]
                assert batch.tolist() == scalar

    @staticmethod
    def _msgs(intra, n=40):
        dst = 1 if intra else 2
        sizes = TestBatchWirePath.SIZES
        return [Message(0, dst, "t", f"k{i}", sizes[i % len(sizes)])
                for i in range(n)]

    @staticmethod
    def _cluster(engine_cls, seed=None, tracer=None):
        f = make_fabric(msg_overhead=2e-8,
                        sw={"t.jitter": 0.3, "t.bw_factor": 1.25})
        eng = engine_cls(tracer=tracer)
        rng = None if seed is None else np.random.default_rng(seed)
        cl = Cluster(eng, 2, f, rng=rng)
        cl.place_ranks_block(4, 2)  # ranks 0,1 on node 0; 2,3 on node 1
        return eng, cl

    @classmethod
    def _drive(cls, engine_cls, intra, seed, use_batch):
        eng, cl = cls._cluster(engine_cls, seed=seed)
        dst = 1 if intra else 2
        delivered = []
        cl.register_endpoint(dst, "t",
                             lambda m: delivered.append((m.kind, eng.now)))
        msgs = cls._msgs(intra)
        if use_batch:
            local_done = cl.send_batch(msgs)
        else:
            local_done = np.asarray([cl.send(m) for m in msgs])
        eng.run()
        eg = cl.nodes[0].egress.stats
        ing = cl.nodes[cl.node_of(dst)].ingress.stats
        return {
            "local_done": local_done.tolist(),
            "injected": [m.injected_at for m in msgs],
            "delivered": delivered,
            "now": eng.now,
            "events": eng.event_count,
            "net": (cl.stats.messages, cl.stats.bytes,
                    cl.stats.control_messages, cl.stats.intra_messages,
                    cl.stats.total_transit_time),
            "egress": (eg.acquisitions, eg.contended_acquisitions,
                       eg.total_wait_time, eg.total_hold_time),
            "ingress": (ing.acquisitions, ing.contended_acquisitions,
                        ing.total_wait_time, ing.total_hold_time),
            "clock": dict(cl._channel_clock),
        }

    @pytest.mark.parametrize("intra", [False, True])
    @pytest.mark.parametrize("seed", [None, 42])
    def test_send_batch_matches_scalar_loop_bit_for_bit(self, intra, seed):
        assert (self._drive(Engine, intra, seed, use_batch=True)
                == self._drive(Engine, intra, seed, use_batch=False))

    def test_fallback_on_mixed_channels(self):
        from repro.network import batch_eligible

        eng, cl = self._cluster(Engine, seed=3)
        got = []
        for dst in (1, 2, 3):
            cl.register_endpoint(dst, "t", lambda m: got.append(m.kind))
        msgs = [Message(0, 1 + i % 3, "t", f"k{i}", 100) for i in range(9)]
        assert not batch_eligible(cl, msgs)
        done = cl.send_batch(msgs)  # falls back to the per-message loop
        eng.run()
        assert len(done) == 9 and sorted(got) == sorted(m.kind for m in msgs)

    def test_fallback_when_tracer_active(self):
        from repro.network import batch_eligible
        from repro.trace import Tracer

        eng, cl = self._cluster(Engine, tracer=Tracer(progress_every=None))
        msgs = self._msgs(False, n=4)
        assert not batch_eligible(cl, msgs)
        got = []
        cl.register_endpoint(2, "t", lambda m: got.append(m.kind))
        cl.send_batch(msgs)
        eng.run()
        assert got == [m.kind for m in msgs]

    def test_empty_batch_not_eligible(self):
        from repro.network import batch_eligible

        _, cl = self._cluster(Engine)
        assert not batch_eligible(cl, [])

    def test_depart_delay_applies_to_whole_batch(self):
        eng, cl = self._cluster(Engine)
        scalar_eng, scalar_cl = self._cluster(Engine)
        msgs = self._msgs(False, n=8)
        smsgs = self._msgs(False, n=8)
        done = cl.send_batch(msgs, depart_delay=1e-3)
        sdone = np.asarray([scalar_cl.send(m, 1e-3) for m in smsgs])
        assert done.tolist() == sdone.tolist()
        assert all(m.injected_at == 1e-3 for m in msgs)
