"""Finalize-time resource lint.

Runs once, from :meth:`AnalysisPipeline.finalize`, after the job's
processes completed. Everything it reports is *warning* severity: a
trailing unconsumed notification or an in-flight final message is normal
at the end of an iterative wavefront code (the last reverse-halo
``write_notify`` is never consumed; the last eager sends of an MPI
variant are never received), so these must not fail ``check="strict"``
runs of the paper variants — they are leaks worth seeing, not errors.
Races and deadlock cycles, the actual correctness violations, carry error
severity and are reported by the other checkers.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.pipeline import SEV_WARNING


def collect_resource_findings(pl) -> None:
    """Append resource-leak warnings to the pipeline ``pl``."""
    _mpi_requests(pl)
    _notifications(pl)
    _queue_inflight(pl)
    _tasks(pl)
    _messages(pl)


def _mpi_requests(pl) -> None:
    by_owner: Dict[int, List] = {}
    for req in pl.mpi_requests:
        if not req.done:
            by_owner.setdefault(req.owner, []).append(req)
    for owner in sorted(by_owner):
        reqs = by_owner[owner]
        desc = ", ".join(
            f"{r.kind} tag={r.tag} peer=rank{r.peer} {r.state.name.lower()}"
            for r in reqs[:4])
        if len(reqs) > 4:
            desc += f", ... ({len(reqs) - 4} more)"
        pl.add_finding(
            "resources", "unfreed-mpi-request", SEV_WARNING, owner,
            f"{len(reqs)} MPI request(s) never completed/waited: {desc}",
            count=len(reqs))


def _notifications(pl) -> None:
    if pl.gaspi_ctx is None:
        return
    for rank in pl.gaspi_ctx.ranks:
        leftover = []
        for seg_id in sorted(rank.segments):
            seg = rank.segments[seg_id]
            for nid in sorted(seg.notifications):
                leftover.append((seg_id, nid, seg.notifications[nid]))
        if leftover:
            desc = ", ".join(f"seg {s} id {n} val {v}"
                             for s, n, v in leftover[:6])
            if len(leftover) > 6:
                desc += f", ... ({len(leftover) - 6} more)"
            pl.add_finding(
                "resources", "unconsumed-notification", SEV_WARNING,
                rank.rank,
                f"{len(leftover)} notification(s) posted but never "
                f"consumed: {desc}",
                count=len(leftover))


def _queue_inflight(pl) -> None:
    if pl.gaspi_ctx is None:
        return
    now = pl._now()
    for rank in pl.gaspi_ctx.ranks:
        unharvested = 0
        inflight = 0
        for q in rank.queues:
            for req in q.inflight:
                if req.done_at <= now:
                    unharvested += 1
                else:
                    inflight += 1
        if unharvested or inflight:
            pl.add_finding(
                "resources", "queue-inflight", SEV_WARNING, rank.rank,
                f"{unharvested + inflight} low-level request(s) left on "
                f"queues at finalize ({unharvested} locally complete but "
                f"never harvested, {inflight} still in flight)",
                unharvested=unharvested, inflight=inflight)


def _tasks(pl) -> None:
    per_rt: Dict[str, List] = {}
    for (rt_name, _uid), task in sorted(pl.live_tasks.items()):
        per_rt.setdefault(rt_name, []).append(task)
    for rt_name in sorted(per_rt):
        tasks = per_rt[rt_name]
        desc = ", ".join(f"{t.label}#{t.uid} ({t.state.name.lower()})"
                         for t in tasks[:4])
        if len(tasks) > 4:
            desc += f", ... ({len(tasks) - 4} more)"
        pl.add_finding(
            "resources", "unretired-task", SEV_WARNING, rt_name,
            f"{len(tasks)} task(s) never completed: {desc}",
            count=len(tasks))


def _messages(pl) -> None:
    if not pl.inflight_msgs:
        return
    by_src: Dict[object, int] = {}
    for _eid, (src, _dst, _proto, _kind, _nbytes) in sorted(
            pl.inflight_msgs.items()):
        by_src[src] = by_src.get(src, 0) + 1
    for src in sorted(by_src, key=str):
        pl.add_finding(
            "resources", "undelivered-message", SEV_WARNING, src,
            f"{by_src[src]} message(s) still in flight at finalize",
            count=by_src[src])
