"""Sharded conservative-time parallel discrete-event execution.

One simulated job is partitioned across OS worker processes ("shards"):
nodes are split into contiguous blocks, each shard builds the *full*
:class:`~repro.harness.runner.Job` (so every rank endpoint exists and
message routing is unchanged) but only spawns the main processes of the
ranks placed on its own nodes. Cross-shard traffic rides the wire records
of :mod:`repro.network.topology`: a sender whose destination node belongs
to another shard appends the timestamped record to the cluster ``outbox``
instead of the local pending heap, and the coordinator ships it to the
owner at the next barrier.

Synchronization is the classic conservative *lookahead window* protocol
(CMB null-message reduced to a barrier per window, cf. DART-MPI-style
one-sided progress engines):

* **Lookahead** ``L`` is the minimum inter-node link latency
  (``Cluster.lookahead``): a message injected at time ``u`` cannot arrive
  before ``u + L`` — egress serialization, protocol extras, and jitter
  only ever *add* to it. Intra-node traffic never crosses shards and
  never blocks the protocol.
* **LBTS** (lower bound on timestamp) each round is the minimum over
  every shard's next local event time and every just-gathered wire
  record's arrival time. Every event a shard fires in the next window is
  at ``t >= LBTS``, so any record it will *ever* produce arrives at
  ``>= LBTS + L``.
* **Window**: each shard runs ``run_window(T_end)`` with ``T_end = LBTS
  + L``, firing exactly the events strictly below ``T_end``. Records
  gathered at the barrier are merged before the next window; their
  arrival times are ``>= T_end``, so no shard ever receives a record in
  its past.

Determinism contract (see docs/sharding.md): the ingress NIC grants of
every node happen in global ``(wire_arrive, src_node, send#)`` order — a
pure function of the record set, independent of the partition — and all
float accumulations (jitter streams, transit time, MPI lock totals) are
per-node or per-rank and re-reduced in canonical order. Sharded runs are
therefore **bit-identical** to the single-engine path; the oracle tests
in tests/test_shard.py assert exactly that.

Results merge: ``sim_time`` is the max over shards of the local time at
which each shard's last rank process completed (the single-engine run
stops at exactly that event); metrics are re-reduced from per-rank /
per-node partial vectors in the same left-to-right order the serial
collectors use.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import SimulationError

_INF = float("inf")

#: ``make_procs(job, local_ranks)`` returns the main-process events for the
#: given ranks of an assembled (full) Job. Called once inside each worker.
ProcsFactory = Callable[[object, List[int]], list]


class ShardError(SimulationError):
    """A shard worker died or reported a failure."""


# ----------------------------------------------------------------------
# eligibility & partitioning
# ----------------------------------------------------------------------
def shard_eligible(spec, tracer=None, collect_grid: bool = False) -> bool:
    """True if ``spec`` can run sharded with the bit-identity guarantee.

    Per-message observers (tracer, analysis, perf tracing, active fault
    plans) see sends in engine-execution order, which the partition does
    not preserve; hybrid variants carry tasking runtimes whose polling
    services never go idle (no finite LBTS); zero inter-node latency
    gives no lookahead. All of those fall back to the single engine.
    """
    if spec.variant != "mpi" or spec.backend is not None:
        return False
    if tracer is not None or spec.check is not None or spec.perf:
        return False
    if collect_grid:
        return False
    if spec.faults is not None and not spec.faults.empty:
        return False
    if spec.machine.fabric.base_latency(intra=False) <= 0.0:
        return False
    return True


def resolve_shards(spec, tracer=None, collect_grid: bool = False) -> int:
    """Shard count a runner should use for ``spec`` (0 = run serial).

    ``JobSpec(shards=N)`` wins; otherwise the ``REPRO_SHARDS`` environment
    variable decides (unset or ``<= 1``: serial; ``N > 1``: eligible jobs
    run on N shards). The count is capped at ``n_nodes`` (nodes are the
    partition unit).
    """
    n = getattr(spec, "shards", None)
    if n is None:
        env = int(os.environ.get("REPRO_SHARDS", "0"))
        n = env if env > 1 else 0
    if n < 1 or not shard_eligible(spec, tracer=tracer,
                                   collect_grid=collect_grid):
        return 0
    return min(n, spec.n_nodes)


def partition_nodes(n_nodes: int, n_shards: int) -> List[int]:
    """Contiguous block partition: ``owner[node_id] -> shard``."""
    if not 1 <= n_shards <= n_nodes:
        raise SimulationError(
            f"cannot split {n_nodes} nodes into {n_shards} shards")
    base, extra = divmod(n_nodes, n_shards)
    owner: List[int] = []
    for sid in range(n_shards):
        owner.extend([sid] * (base + (1 if sid < extra else 0)))
    return owner


def _rank_node(spec, rank: int) -> int:
    # mirrors Cluster.place_ranks_block
    return rank // spec.ranks_per_node


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
def _local_metrics(job) -> Dict[str, object]:
    """Partial metric vectors of one shard, for canonical re-reduction.

    Foreign ranks/nodes exist in the worker's full Job but never act, so
    their entries are exact zeros; the coordinator still selects each
    entry from its owner shard rather than summing across shards.
    """
    cluster = job.cluster
    st = cluster._stats
    out: Dict[str, object] = {
        "messages": st.messages,
        "control_messages": st.control_messages,
        "bytes": st.bytes,
        "intra_messages": st.intra_messages,
        "node_transit": [nd.transit_time for nd in cluster.nodes],
    }
    mpi = job.mpi
    if mpi is not None:
        out["rank_time_in_mpi"] = [rk.lock.time_in_mpi for rk in mpi.ranks]
        out["rank_wait_in_mpi"] = [rk.lock.wait_in_mpi for rk in mpi.ranks]
        out["mpi_calls"] = sum(rk.lock.calls for rk in mpi.ranks)
        out["mpi_isends"] = sum(rk.stats_isends for rk in mpi.ranks)
        out["mpi_irecvs"] = sum(rk.stats_irecvs for rk in mpi.ranks)
        out["eager_msgs"] = sum(rk.stats_eager for rk in mpi.ranks)
        out["rendezvous_msgs"] = sum(rk.stats_rendezvous for rk in mpi.ranks)
    return out


def _worker_main(spec, shard_id: int, owner: List[int],
                 make_procs: ProcsFactory, conn,
                 max_events: Optional[int]) -> None:
    """One shard: full Job, local procs, window loop driven over ``conn``."""
    try:
        from repro.harness.runner import build_job

        job = build_job(spec)
        cluster = job.cluster
        cluster.configure_sharding(owner, shard_id)
        eng = job.engine
        local_ranks = [
            r for r in range(spec.n_ranks)
            if owner[cluster.node_of(r)] == shard_id
        ]
        procs = make_procs(job, local_ranks)

        live = [0]
        t_done = [0.0]

        def _done(_event, live=live, t_done=t_done):
            live[0] -= 1
            if live[0] == 0:
                t_done[0] = eng.now

        for p in procs:
            if not p.triggered:
                live[0] += 1
                p.add_callback(_done)

        fired0 = eng.event_count
        while True:
            tag, payload = conn.recv()
            if tag == "window":
                t_end, records = payload
                if records:
                    cluster.inject_arrivals(records)
                budget = None
                if max_events is not None:
                    budget = max_events - (eng.event_count - fired0)
                    if budget <= 0:
                        raise eng.budget_error(max_events)
                eng.run_window(t_end, max_events=budget)
                conn.send(("state", {
                    "peek": eng.peek(),
                    "queue_depth": eng.queue_depth,
                    "now": eng.now,
                    "outbox": cluster.take_outbox(),
                    "live": live[0],
                    "t_done": t_done[0],
                    "alive": [p.name for p in procs if not p.triggered],
                }))
            elif tag == "finish":
                for p in procs:
                    if p.ok is False:
                        raise p.value
                conn.send(("result", {
                    "t_done": t_done[0],
                    "metrics": _local_metrics(job),
                }))
                conn.close()
                return
            else:  # "abort"
                conn.close()
                return
    except BaseException as exc:  # ship the failure to the coordinator
        try:
            conn.send(("error", (type(exc).__name__, str(exc),
                                 traceback.format_exc())))
            conn.close()
        except Exception:
            pass
        os._exit(1)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
def _merge_metrics(spec, owner: List[int],
                   parts: List[Dict[str, object]]) -> Dict[str, float]:
    """Re-reduce shard partials exactly as the serial collectors would.

    Integer counters sum (exact); float totals are rebuilt from per-rank /
    per-node vectors — each entry taken from its owner shard — and summed
    left-to-right in rank/node order, reproducing ``sum(rk.lock... for rk
    in ranks)`` and the node-ordered transit property bit for bit. The
    derived metrics replicate :meth:`Job.collect_metrics`.
    """
    n_ranks = spec.n_ranks

    messages = sum(p["messages"] for p in parts)
    m: Dict[str, float] = {
        "messages": messages,
        "control_messages": sum(p["control_messages"] for p in parts),
        "bytes": sum(p["bytes"] for p in parts),
        "intra_messages": sum(p["intra_messages"] for p in parts),
    }
    total_transit = 0.0
    for node_id in range(spec.n_nodes):
        total_transit += parts[owner[node_id]]["node_transit"][node_id]
    m["mean_transit"] = total_transit / messages if messages else 0.0

    if "rank_time_in_mpi" in parts[0]:
        time_in_mpi = sum(
            parts[owner[_rank_node(spec, r)]]["rank_time_in_mpi"][r]
            for r in range(n_ranks)
        )
        wait_in_mpi = sum(
            parts[owner[_rank_node(spec, r)]]["rank_wait_in_mpi"][r]
            for r in range(n_ranks)
        )
        m["time_in_mpi"] = time_in_mpi
        m["wait_in_mpi"] = wait_in_mpi
        for key in ("mpi_calls", "mpi_isends", "mpi_irecvs", "eager_msgs",
                    "rendezvous_msgs"):
            m[key] = sum(p[key] for p in parts)

    m["comm_time"] = m.get("time_in_mpi", 0.0) + m.get("gaspi_submit_time", 0.0)
    m["lock_wait_time"] = m.get("wait_in_mpi", 0.0) + m.get("gaspi_queue_wait", 0.0)
    m.setdefault("messages", 0.0)
    m.setdefault("notifications", 0.0)
    m.setdefault("fault_injected", 0.0)
    m.setdefault("fault_retransmits", 0.0)
    m.setdefault("fault_timeouts", 0.0)
    return m


def run_sharded_job(spec, make_procs: ProcsFactory, n_shards: int,
                    max_events: Optional[int] = 50_000_000,
                    observer: Optional[Callable] = None,
                    ) -> Tuple[float, Dict[str, float]]:
    """Run one job across ``n_shards`` forked workers.

    ``make_procs(job, local_ranks)`` builds the rank main processes inside
    each worker (it is inherited through fork, so closures are fine).
    ``observer(round_idx, t_end, states)``, when given, is called at every
    barrier with the per-shard ``{"peek", "queue_depth", "now", "live",
    ...}`` dicts — the shard-boundary observation hook the determinism
    tests log. Returns ``(sim_time, metrics)``.

    ``max_events`` bounds each *shard's* fired events (the serial budget
    cannot be enforced globally without serializing the shards).
    """
    if n_shards < 1:
        raise SimulationError("n_shards must be >= 1")
    lookahead = spec.machine.fabric.base_latency(intra=False)
    if lookahead <= 0.0:
        raise SimulationError("cannot shard: no inter-node lookahead")
    owner = partition_nodes(spec.n_nodes, n_shards)

    ctx = multiprocessing.get_context("fork")
    pipes = []
    workers = []
    for sid in range(n_shards):
        parent_conn, child_conn = ctx.Pipe()
        w = ctx.Process(
            target=_worker_main,
            args=(spec, sid, owner, make_procs, child_conn, max_events),
            daemon=True,
        )
        w.start()
        child_conn.close()
        pipes.append(parent_conn)
        workers.append(w)

    def _recv(pc, sid):
        try:
            tag, payload = pc.recv()
        except EOFError:
            raise ShardError(f"shard {sid} died without reporting") from None
        if tag == "error":
            name, text, tb = payload
            raise ShardError(
                f"shard {sid} failed: {name}: {text}\n{tb}")
        return tag, payload

    try:
        inboxes: List[list] = [[] for _ in range(n_shards)]
        t_end = 0.0
        round_idx = 0
        states: List[dict] = []
        while True:
            for sid, pc in enumerate(pipes):
                pc.send(("window", (t_end, inboxes[sid])))
            inboxes = [[] for _ in range(n_shards)]
            states = []
            for sid, pc in enumerate(pipes):
                tag, payload = _recv(pc, sid)
                states.append(payload)

            lbts = min(s["peek"] for s in states)
            for s in states:
                for rec in s["outbox"]:
                    dst_node = _rank_node(spec, rec[4].dst_rank)
                    inboxes[owner[dst_node]].append(rec)
                    if rec[0] < lbts:
                        lbts = rec[0]
            if observer is not None:
                observer(round_idx, t_end, states)
            round_idx += 1

            if sum(s["live"] for s in states) == 0:
                break
            if lbts == _INF:
                alive = [n for s in states for n in s["alive"]]
                raise SimulationError(
                    f"job deadlocked; still alive: {alive}")
            t_end = lbts + lookahead

        for pc in pipes:
            pc.send(("finish", None))
        results = []
        for sid, pc in enumerate(pipes):
            tag, payload = _recv(pc, sid)
            results.append(payload)
        for w in workers:
            w.join(timeout=60)

        sim_time = max(r["t_done"] for r in results)
        metrics = _merge_metrics(spec, owner,
                                 [r["metrics"] for r in results])
        return sim_time, metrics
    finally:
        for pc in pipes:
            try:
                pc.close()
            except Exception:
                pass
        for w in workers:
            if w.is_alive():
                w.terminate()
            w.join(timeout=10)
