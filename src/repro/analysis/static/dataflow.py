"""Dataflow analyses over :class:`repro.analysis.static.cfg.CFG`.

Two primitives the protocol rules are built from:

* :func:`reaching_definitions` — the classic forward may-analysis: for
  each node, which ``(name, defining-node)`` pairs can reach it. Params
  are modelled as definitions at ``CFG.ENTRY``.
* :func:`may_reach` — the path-sensitivity query behind the
  handle-lifecycle rules: *does a path exist* from a set of start nodes
  to any target node that avoids every blocked node? BFS over the may-
  edges; a blocked node is neither traversed nor counted as a target
  (blocking wins on overlap).

Both are intraprocedural and O(nodes × names) / O(edges) — fast enough
to run over the whole tree on every CI run without caching.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Set, Tuple

from repro.analysis.static.cfg import CFG

#: one reaching definition: (variable name, defining node id)
Definition = Tuple[str, int]


def reaching_definitions(cfg: CFG,
                         entry_defs: Iterable[str] = ()
                         ) -> Dict[int, Set[Definition]]:
    """IN-set of reaching definitions per node id.

    ``entry_defs`` (typically the function's parameter names) reach as
    definitions at ``CFG.ENTRY``.
    """
    preds = cfg.predecessors()
    out: Dict[int, Set[Definition]] = {
        CFG.ENTRY: {(name, CFG.ENTRY) for name in entry_defs}}
    in_: Dict[int, Set[Definition]] = {}
    work = deque(node.index for node in cfg.nodes)
    while work:
        i = work.popleft()
        node = cfg.nodes[i]
        new_in: Set[Definition] = set()
        for p in preds.get(i, ()):
            new_in |= out.get(p, set())
        in_[i] = new_in
        new_out = {d for d in new_in if d[0] not in node.defs}
        new_out |= {(name, i) for name in node.defs}
        if new_out != out.get(i):
            out[i] = new_out
            for s in cfg.successors(i):
                if s >= 0:
                    work.append(s)
    return in_


def use_def_chains(cfg: CFG, entry_defs: Iterable[str] = ()
                   ) -> Dict[int, Dict[str, Set[int]]]:
    """For each node: used name → the def-node ids that may supply it."""
    reach = reaching_definitions(cfg, entry_defs)
    chains: Dict[int, Dict[str, Set[int]]] = {}
    for node in cfg.nodes:
        per_name: Dict[str, Set[int]] = {}
        for name, def_node in reach.get(node.index, ()):
            if name in node.uses:
                per_name.setdefault(name, set()).add(def_node)
        if per_name:
            chains[node.index] = per_name
    return chains


def may_reach(cfg: CFG, starts: Iterable[int], targets: Set[int],
              blocked: Set[int]) -> bool:
    """True iff some path from a start reaches a target avoiding every
    blocked node. Start nodes that are themselves targets count."""
    seen: Set[int] = set()
    work = deque(s for s in starts if s not in blocked)
    while work:
        i = work.popleft()
        if i in seen:
            continue
        seen.add(i)
        if i in targets:
            return True
        if i == CFG.EXIT:
            continue
        for s in cfg.successors(i):
            if s not in blocked and s not in seen:
                work.append(s)
    return False
