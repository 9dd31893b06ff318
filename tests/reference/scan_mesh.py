"""The original rescanning miniAMR mesh construction: the oracle for
``repro.apps.miniamr.mesh``.

Kept the way ``linear_matching.py`` keeps the deque-walk matcher. It
refines with ``np.sqrt`` over generator sums, restarts a full
``sorted(leaves)`` scan after every 2:1 refinement, tests a neighbour
cube for finer leaves by enumerating every cube inside it, and finds a
coarsened block's source by scanning the previous mesh's Morton order.
``tests/test_properties.py`` checks the linear-time mesh against it on
random shapes. Nothing in ``src/`` uses it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

from repro.apps.miniamr.mesh import AMRParams, BlockKey, Mesh, Sphere

FACES = [(0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1)]


def _required_level(params: AMRParams, objs: Sequence[Sphere], epoch: int,
                    center) -> int:
    best = 0
    for o in objs:
        c = o.at(epoch)
        dist = abs(
            float(np.sqrt(sum((a - b) ** 2 for a, b in zip(center, c)))) - o.radius
        )
        lvl = params.max_level - int(dist / 0.6)
        if lvl > best:
            best = lvl
    return min(max(best, 0), params.max_level)


def build_leaves(params: AMRParams, objs: Sequence[Sphere],
                 epoch: int) -> Set[BlockKey]:
    """The 2:1-balanced leaf set of one refinement epoch."""
    leaves: Set[BlockKey] = set()

    def refine(b: BlockKey) -> None:
        L, ix, iy, iz = b
        size = 1.0 / (1 << L)
        center = ((ix + 0.5) * size, (iy + 0.5) * size, (iz + 0.5) * size)
        req = _required_level(params, objs, epoch, center)
        if L >= req or L >= params.max_level:
            leaves.add(b)
            return
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    refine((L + 1, ix * 2 + dx, iy * 2 + dy, iz * 2 + dz))

    for ix in range(params.nx):
        for iy in range(params.ny):
            for iz in range(params.nz):
                refine((0, ix, iy, iz))
    _enforce_2to1(params, leaves)
    return leaves


def _enforce_2to1(params: AMRParams, leaves: Set[BlockKey]) -> None:
    changed = True
    while changed:
        changed = False
        for b in sorted(leaves):
            L, ix, iy, iz = b
            if L >= params.max_level:
                continue
            needs = False
            for axis, sign in FACES:
                coord = [ix, iy, iz]
                coord[axis] += sign
                dims = (params.nx << L, params.ny << L, params.nz << L)
                if not 0 <= coord[axis] < dims[axis]:
                    continue
                if _has_leaf_finer_than(leaves, (L, *coord), L + 1, params):
                    needs = True
                    break
            if needs:
                leaves.discard(b)
                for dx in (0, 1):
                    for dy in (0, 1):
                        for dz in (0, 1):
                            leaves.add((L + 1, ix * 2 + dx, iy * 2 + dy, iz * 2 + dz))
                changed = True
                break


def _has_leaf_finer_than(leaves: Set[BlockKey], region: BlockKey, limit: int,
                         params: AMRParams) -> bool:
    L, ix, iy, iz = region
    for lvl in range(limit + 1, params.max_level + 1):
        shift = lvl - L
        n = 1 << shift
        for dx in range(n):
            for dy in range(n):
                for dz in range(n):
                    if ((lvl, (ix << shift) + dx, (iy << shift) + dy,
                         (iz << shift) + dz)) in leaves:
                        return True
    return False


def source_of(prev: Mesh, b: BlockKey) -> Optional[BlockKey]:
    """Itself, else an ancestor, else the Morton-first descendant found by
    scanning ``prev.order``."""
    if b in prev.leaves:
        return b
    lvl, x, y, z = b
    while lvl > 0:
        lvl, x, y, z = lvl - 1, x // 2, y // 2, z // 2
        if (lvl, x, y, z) in prev.leaves:
            return (lvl, x, y, z)
    L, ix, iy, iz = b
    for cand in prev.order:
        cl, cx, cy, cz = cand
        shift = cl - L
        if shift > 0 and (cx >> shift, cy >> shift, cz >> shift) == (ix, iy, iz):
            return cand
    return None


def morton_key(params: AMRParams, b: BlockKey):
    """Mesh order: the 16 low bits of each finest-level coordinate,
    interleaved one bit at a time, then the level."""
    L, ix, iy, iz = b
    shift = params.max_level - L
    fx, fy, fz = ix << shift, iy << shift, iz << shift
    key = 0
    for bit in range(16):
        key |= ((fx >> bit) & 1) << (3 * bit + 2)
        key |= ((fy >> bit) & 1) << (3 * bit + 1)
        key |= ((fz >> bit) & 1) << (3 * bit)
    return (key, L)


def face_neighbors(params: AMRParams, leaves: Set[BlockKey], b: BlockKey,
                   face: int):
    L, ix, iy, iz = b
    axis, sign = FACES[face]
    coord = [ix, iy, iz]
    coord[axis] += sign
    dims = (params.nx << L, params.ny << L, params.nz << L)
    if not 0 <= coord[axis] < dims[axis]:
        return []
    same = (L, coord[0], coord[1], coord[2])
    if same in leaves:
        return [same]
    if L > 0:
        parent = (L - 1, coord[0] // 2, coord[1] // 2, coord[2] // 2)
        if parent in leaves:
            return [parent]
    out = []
    if L < params.max_level:
        cx, cy, cz = coord[0] * 2, coord[1] * 2, coord[2] * 2
        other = [a for a in (0, 1, 2) if a != axis]
        for d1 in (0, 1):
            for d2 in (0, 1):
                d = [0, 0, 0]
                d[axis] = 1 if sign < 0 else 0
                d[other[0]], d[other[1]] = d1, d2
                cand = (L + 1, cx + d[0], cy + d[1], cz + d[2])
                if cand in leaves:
                    out.append(cand)
    return sorted(out)
