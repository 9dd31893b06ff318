"""Property-based tests (hypothesis) on core invariants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.gauss_seidel.common import gs_sweep_block, partition_rows
from repro.apps.miniamr.mesh import (
    AMRParams,
    _enforce_2to1,
    build_mesh,
    build_mesh_schedule,
    make_objects,
    source_of,
)
from repro.gaspi.segments import Segment
from repro.mpi.matching import MatchingEngine
from repro.mpi.requests import Request
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.network.message import Message
from repro.sim import Engine
from repro.mpi.threading import GlobalLock
from repro.tasking import Runtime, RuntimeConfig, In, Out, InOut
from tests.conftest import run_all
from tests.reference.heap_engine import HeapEngine
from tests.reference import scan_mesh
from tests.reference.linear_matching import LinearMatchingEngine


class TestSerialDeviceProperties:
    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 10)), min_size=1,
                    max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_fifo_no_overlap_no_reorder(self, reqs):
        """Grants never overlap, never reorder, and the lock's wait+hold
        accounting is exact."""
        lock = GlobalLock(Engine(), 0)
        reqs = sorted(reqs, key=lambda t: t[0])  # arrivals in time order
        prev_end = 0.0
        total_wait = total_hold = 0.0
        for at, hold in reqs:
            start = lock.enter(hold, at=at)
            assert start >= at
            assert start >= prev_end  # FIFO, no overlap
            prev_end = start + hold
            assert lock.device.busy_until == prev_end
            total_wait += start - at
            total_hold += hold
        assert lock.calls == len(reqs)
        assert lock.wait_in_mpi == total_wait
        assert lock.time_in_mpi == pytest.approx(total_wait + total_hold)


class TestMatchingProperties:
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                    min_size=1, max_size=30),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_every_message_matches_exactly_one_recv(self, channels, data):
        """For any interleaving of arrivals and posts (with per-channel
        FIFO arrival order, as the network guarantees), all messages pair
        up and same-(src,tag) pairs match in order."""
        eng = Engine()
        me = MatchingEngine()
        tokens = data.draw(st.permutations(
            [("msg", k) for k in range(len(channels))]
            + [("recv", k) for k in range(len(channels))]))
        # materialize per-channel FIFO: the k-th msg/recv token of a
        # channel is that channel's k-th arrival/post
        chan_list = {}
        for src, tag in channels:
            chan_list.setdefault((src, tag), 0)
        msg_seq = {}
        matched = []
        for kind, k in tokens:
            src, tag = channels[k]
            if kind == "msg":
                seq = msg_seq.get((src, tag), 0)
                msg_seq[(src, tag)] = seq + 1
                m = Message(src, 9, "mpi", "eager", 8, None,
                            meta={"tag": tag, "seq": seq})
                req = me.incoming(m)
                if req is not None:
                    matched.append((m, req))
            else:
                r = Request(eng, "recv", 9, src, tag, None, 0)
                msg = me.post_recv(r)
                if msg is not None:
                    matched.append((msg, r))
        assert len(matched) == len(channels)
        assert me.posted_depth == 0 and me.unexpected_depth == 0
        # per (src, tag): messages are consumed in arrival order
        seen = {}
        for msg, req in matched:
            key = (msg.src_rank, msg.meta["tag"])
            assert req.peer in (key[0], ANY_SOURCE)
            assert req.tag in (key[1], ANY_TAG)
            prev = seen.get(key)
            if prev is not None:
                assert msg.meta["seq"] > prev
            seen[key] = msg.meta["seq"]


class TestDependencyProperties:
    @given(st.lists(st.tuples(st.sampled_from(["in", "out", "inout"]),
                              st.integers(0, 3)),
                    min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_serialization_order_respects_readers_writers(self, accesses):
        """For any access sequence on a few keys, the observed execution
        order satisfies: a writer is ordered after every earlier access to
        its key; a reader after the latest earlier writer of its key."""
        eng = Engine()
        rt = Runtime(eng, RuntimeConfig(n_cores=4, create_overhead=0.0,
                                        dispatch_overhead=0.0))
        finished = []

        def main(rt):
            mk = {"in": In, "out": Out, "inout": InOut}
            for i, (mode, key) in enumerate(accesses):
                def body(task, i=i):
                    task.charge(1e-6)
                    finished.append(i)
                rt.submit(body, [mk[mode](key)])
            yield from rt.taskwait()

        run_all(eng, [rt.spawn_main(main)])
        pos = {i: p for p, i in enumerate(finished)}
        assert len(pos) == len(accesses)
        for j, (mode_j, key_j) in enumerate(accesses):
            for i in range(j):
                mode_i, key_i = accesses[i]
                if key_i != key_j:
                    continue
                if mode_j in ("out", "inout"):
                    assert pos[i] < pos[j], (i, j, accesses)
                elif mode_i in ("out", "inout"):
                    assert pos[i] < pos[j], (i, j, accesses)


class TestSegmentProperties:
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(1, 1000)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_notifications_consumed_exactly_once(self, posts):
        seg = Segment(0, np.zeros(1))
        # keep the latest value per id (GASPI overwrites unconsumed slots)
        latest = {}
        for nid, val in posts:
            seg.post_notification(nid, val)
            latest[nid] = val
        for nid, val in latest.items():
            assert seg.consume(nid) == val
            assert seg.consume(nid) is None


class TestPartitionProperties:
    @given(st.integers(1, 200), st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_partition_rows_covers_exactly(self, rows, ranks):
        if ranks > rows:
            with pytest.raises(ValueError):
                partition_rows(rows, ranks)
            return
        parts = partition_rows(rows, ranks)
        assert parts[0][0] == 0 and parts[-1][1] == rows
        for (a0, a1), (b0, b1) in zip(parts, parts[1:]):
            assert a1 == b0
        sizes = [b - a for a, b in parts]
        assert max(sizes) - min(sizes) <= 1


class TestGSKernelProperties:
    @given(st.integers(2, 6), st.integers(2, 12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_column_split_invariance(self, m, n, data):
        """Splitting a block sweep at any column is bit-invariant —
        the property that makes distributed runs reference-exact."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        A1 = rng.random((m, 2 * n))
        A2 = A1.copy()
        top, bottom = rng.random(2 * n), rng.random(2 * n)
        side = np.zeros(m)
        gs_sweep_block(A1, top, bottom, side, side)
        split = data.draw(st.integers(1, 2 * n - 1))
        old_right = A2[:, split].copy()
        gs_sweep_block(A2[:, :split], top[:split], bottom[:split], side, old_right)
        gs_sweep_block(A2[:, split:], top[split:], bottom[split:],
                       A2[:, split - 1], side)
        assert np.array_equal(A1, A2)


class TestMeshProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_mesh_invariants_for_random_objects(self, seed, max_level):
        params = AMRParams(nx=2, ny=2, nz=2, max_level=max_level, seed=seed,
                           n_objects=2)
        mesh = build_mesh(params, make_objects(params), epoch=0)
        # volume coverage
        vol = sum(0.5 ** (3 * b[0]) for b in mesh.leaves)
        assert vol == pytest.approx(params.nx * params.ny * params.nz)
        # 2:1 balance and pair symmetry
        directed = set()
        for b in mesh.order:
            for f in range(6):
                for nb in mesh.face_neighbors(b, f):
                    assert abs(nb[0] - b[0]) <= 1
                    directed.add((b, nb))
        for (a, b) in directed:
            assert (b, a) in directed

    @given(st.integers(0, 2**31 - 1), st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_balance_of_random_octrees_matches_the_oracle(self, seed,
                                                          max_level):
        """Sharp level jumps, which smooth refinement bands rarely make,
        force chains of 2:1 refinements across levels."""
        rng = random.Random(seed)
        params = AMRParams(nx=3, ny=2, nz=2, max_level=max_level)
        leaves = {(0, x, y, z) for x in range(3) for y in range(2)
                  for z in range(2)}
        for _ in range(rng.randint(1, 12)):
            L, x, y, z = b = rng.choice(sorted(leaves))
            if L < max_level:
                leaves.discard(b)
                leaves.update((L + 1, 2 * x + i, 2 * y + j, 2 * z + k)
                              for i in (0, 1) for j in (0, 1) for k in (0, 1))
        expected = set(leaves)
        scan_mesh._enforce_2to1(params, expected)
        _enforce_2to1(params, leaves)
        assert leaves == expected

    @given(st.integers(0, 2**31 - 1), st.integers(0, 3),
           st.tuples(*[st.integers(1, 3)] * 3), st.integers(1, 3),
           st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_linear_mesh_matches_the_rescanning_oracle(self, seed, max_level,
                                                       dims, n_objects,
                                                       n_ranks):
        """Leaves, Morton order, face pairs, owners, moves and sources
        equal those of the original construction
        (tests/reference/scan_mesh.py) on random shapes."""
        nx, ny, nz = dims
        params = AMRParams(nx=nx, ny=ny, nz=nz, max_level=max_level,
                           seed=seed, n_objects=n_objects, timesteps=2,
                           refine_every=1)
        sched = build_mesh_schedule(params, n_ranks)
        objs = make_objects(params)
        for e, mesh in enumerate(sched.meshes):
            leaves = scan_mesh.build_leaves(params, objs, e)
            assert mesh.leaves == leaves
            assert mesh.order == sorted(
                leaves, key=lambda b: scan_mesh.morton_key(params, b))
            assert mesh.pairs == [
                (b, nb, f) for b in mesh.order for f in range(6)
                for nb in scan_mesh.face_neighbors(params, leaves, b, f)]
            base, extra = divmod(len(mesh.order), n_ranks)
            sizes = [base + (r < extra) for r in range(n_ranks)]
            assert [mesh.owner[b] for b in mesh.order] == [
                r for r, n in enumerate(sizes) for _ in range(n)]
        prev, cur = sched.meshes
        sources = [scan_mesh.source_of(prev, b) for b in cur.order]
        assert [source_of(prev, b) for b in cur.order] == sources
        assert sched.moves == [[
            (b, src, prev.owner[src], cur.owner[b])
            for b, src in zip(cur.order, sources)
            if prev.owner[src] != cur.owner[b]]]


class TestMatchingDifferentialOracle:
    """The indexed MatchingEngine must be observationally identical to the
    original O(n) LinearMatchingEngine (tests/reference/linear_matching.py)
    on any interleaving of posts and arrivals, wildcards included."""

    @given(st.lists(st.one_of(
        st.tuples(st.just("recv"),
                  st.sampled_from([ANY_SOURCE, 0, 1, 2]),
                  st.sampled_from([ANY_TAG, 0, 1, 2])),
        st.tuples(st.just("msg"),
                  st.integers(0, 2),
                  st.integers(0, 2)),
    ), min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_indexed_matches_linear_oracle(self, ops):
        eng = Engine()
        indexed = MatchingEngine()
        linear = LinearMatchingEngine()
        for kind, a, b in ops:
            if kind == "recv":
                req = Request(eng, "recv", 9, a, b, None, 8)
                got_i = indexed.post_recv(req)
                got_l = linear.post_recv(req)
            else:
                msg = Message(a, 9, "mpi", "eager", 8, None, meta={"tag": b})
                got_i = indexed.incoming(msg)
                got_l = linear.incoming(msg)
            # identical object (or identical None) from both engines
            assert got_i is got_l
            assert indexed.posted_depth == linear.posted_depth
            assert indexed.unexpected_depth == linear.unexpected_depth
            # the indexed queue holds exactly the oracle's live messages,
            # in arrival order: nothing matched stays referenced
            live = list(indexed._arrivals.values())
            assert len(live) == len(linear.unexpected)
            assert all(a is b for a, b in zip(live, linear.unexpected))


class TestEngineOrderingProperties:
    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]),      # delay
        st.sampled_from([-1, 0, 1]),           # priority
    ), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_fire_order_is_time_priority_seq(self, specs):
        """Whatever mix of lanes events land in, the observable firing
        order is the sort by (time, priority, insertion seq)."""
        from repro.sim.events import Event

        eng = Engine()
        order = []
        for i, (delay, prio) in enumerate(specs):
            ev = Event(eng)
            ev.add_callback(lambda _e, i=i: order.append(i))
            ev.succeed(delay=delay, priority=prio)
        eng.run()
        expected = [i for i, _ in sorted(
            enumerate(specs), key=lambda t: (t[1][0], t[1][1], t[0]))]
        assert order == expected

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.25, 1.0]),     # delay
        st.sampled_from([-1, 0, 1]),           # priority
        st.integers(0, 2),                     # children scheduled on fire
        st.sampled_from([0.0, 0.5]),           # child delay
        st.booleans(),                         # cancel this event?
    ), min_size=1, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_fast_run_equals_step_loop(self, specs):
        """run()'s inlined loop fires the exact same sequence as the
        peek()/step() loop and as the one-heap reference, including
        cascades scheduled mid-run and lazily-cancelled events."""
        from repro.sim.events import Event

        def execute(drive, engine_cls=Engine):
            eng = engine_cls()
            order = []

            def spawn(label, delay, prio, children, child_delay):
                ev = Event(eng)

                def on_fire(_e):
                    order.append(label)
                    for c in range(children):
                        spawn(f"{label}.{c}", child_delay, 0, 0, 0.0)

                ev.add_callback(on_fire)
                ev.succeed(delay=delay, priority=prio)
                return ev

            for i, (delay, prio, children, child_delay, cancel) in enumerate(specs):
                ev = spawn(str(i), delay, prio, children, child_delay)
                if cancel:
                    ev.cancel()
            drive(eng)
            return order, eng.now, eng.event_count

        def step_loop(eng):
            while eng.peek() != float("inf"):
                eng.step()

        fast = execute(lambda eng: eng.run())
        assert fast == execute(step_loop)
        assert fast == execute(lambda eng: eng.run(), HeapEngine)


class TestEngineDifferentialOracle:
    """Engine vs the one-heap reference (tests/reference/heap_engine.py):
    the two lanes must be *observably bit-identical* to a single heap —
    same fire order, same clock at every fire, same queue_depth/peek seen
    from inside callbacks, same event_count."""

    @staticmethod
    def _run_storm(engine_cls, specs):
        from repro.sim.events import Event

        eng = engine_cls()
        log = []

        def spawn(label, delay, prio, children, child_delay, cancel):
            ev = Event(eng)

            def on_fire(e):
                log.append((label, eng.now, eng.queue_depth, eng.peek()))
                for c in range(children):
                    spawn(f"{label}.{c}", child_delay, 0, 0, 0.0, False)

            ev.add_callback(on_fire)
            ev.succeed(delay=delay, priority=prio)
            if cancel:
                ev.cancel()

        for i, spec in enumerate(specs):
            spawn(str(i), *spec)
        eng.run()
        return log, eng.now, eng.event_count

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 1.0]),   # delay (delay-0 heavy)
        st.sampled_from([-1, 0, 0, 1]),           # priority
        st.integers(0, 2),                        # children spawned on fire
        st.sampled_from([0.0, 0.5]),              # child delay
        st.booleans(),                            # cancel right away?
    ), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_storms_cancellations_priorities_identical(self, specs):
        assert (self._run_storm(Engine, specs)
                == self._run_storm(HeapEngine, specs))

    @staticmethod
    def _run_batches(engine_cls, batches, cancels):
        from repro.sim.events import Event

        eng = engine_cls()
        log = []
        table = []  # [batch][i] -> Event

        def make(label):
            ev = Event(eng)

            def on_fire(e):
                log.append((label, eng.now, eng.queue_depth, eng.peek()))

            ev.add_callback(on_fire)
            return ev

        for b, offsets in enumerate(batches):
            evs = [make(f"{b}/{i}") for i in range(len(offsets))]
            for ev in evs:
                ev._scheduled = True  # wire-path convention
            eng.schedule_batch(sorted(offsets), evs)
            table.append(evs)
        # cancels fired from inside callbacks: (src_b, src_i, dst_b, dst_i)
        for sb, si, db, di in cancels:
            sb %= len(table)
            si %= len(table[sb])
            db %= len(table)
            di %= len(table[db])
            target = table[db][di]
            table[sb][si].add_callback(
                lambda e, t=target: (not t._triggered and not t._cancelled
                                     and t.cancel()))
        eng.run()
        return log, eng.now, eng.event_count

    @given(
        st.lists(st.lists(st.sampled_from([0.0, 0.5, 0.5, 1.0, 2.0]),
                          min_size=1, max_size=8),
                 min_size=1, max_size=5),
        st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                           st.integers(0, 10), st.integers(0, 10)),
                 max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_schedule_batch_with_cancel_inside_batch_identical(
            self, batches, cancels):
        assert (self._run_batches(Engine, batches, cancels)
                == self._run_batches(HeapEngine, batches, cancels))

    @staticmethod
    def _run_failures(engine_cls, specs):
        from repro.sim.events import Event

        eng = engine_cls()
        log = []
        for i, (delay, prio, fails) in enumerate(specs):
            ev = Event(eng)
            ev.add_callback(lambda e, i=i: log.append(
                (i, e._ok, eng.now, eng.queue_depth)))
            if fails:
                ev.fail(ValueError(str(i)), delay=delay)
                ev._defused = True  # observed via the log, not raised
            else:
                ev.succeed(delay=delay, priority=prio)
        eng.run()
        return log, eng.now, eng.event_count

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 0.0, 1.0]),
        st.sampled_from([-1, 0, 0]),
        st.booleans(),                            # fail() instead of succeed()
    ), min_size=1, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_failed_events_identical(self, specs):
        """Failed events queue and fire in the same order as successes."""
        assert (self._run_failures(Engine, specs)
                == self._run_failures(HeapEngine, specs))
