"""AMR mesh: blocks, moving objects, refinement, partitioning, face pairs.

Blocks are octree leaves keyed ``(level, ix, iy, iz)`` in level-local index
space; every block holds the same number of cells (``cell_dim``³) so
refinement refines *space*, not per-block work — exactly miniAMR's model.
The mesh honours 2:1 balance (face neighbours differ by at most one
level), which bounds the neighbour cases to same-level, one coarser, or
four finer.

The whole mesh schedule (one mesh per refinement epoch, plus the block
moves between epochs) is computed up-front by :func:`build_mesh_schedule`
from the deterministic object trajectories; the sequential reference and
all three distributed variants consume the *same* schedule, so block
values can be compared bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

BlockKey = Tuple[int, int, int, int]  # (level, ix, iy, iz)

#: face directions: (axis, sign)
FACES = [(0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1)]


@dataclass
class AMRParams:
    """miniAMR configuration (downscaled from the paper's input)."""

    #: level-0 block grid dimensions
    nx: int = 4
    ny: int = 4
    nz: int = 4
    max_level: int = 2
    #: cells per block edge (miniAMR default 16; cost model only)
    cell_dim: int = 16
    #: computed variables per cell (the Fig. 12 sweep: 10..40)
    variables: int = 20
    #: total timesteps
    timesteps: int = 8
    #: refinement / load-balance every this many steps
    refine_every: int = 4
    #: communication+compute stages per timestep
    stages: int = 2
    #: moving objects (spheres) driving refinement
    n_objects: int = 2
    compute_data: bool = True
    seed: int = 3

    def __post_init__(self) -> None:
        if self.max_level < 0 or self.timesteps < 1 or self.refine_every < 1:
            raise ValueError("bad AMR parameters")

    @property
    def n_epochs(self) -> int:
        return (self.timesteps + self.refine_every - 1) // self.refine_every

    def face_bytes(self) -> int:
        return self.variables * self.cell_dim * self.cell_dim * 8

    def block_bytes(self) -> int:
        return self.variables * self.cell_dim**3 * 8

    def cell_updates_per_block(self) -> float:
        return float(self.variables) * self.cell_dim**3


@dataclass(frozen=True)
class Sphere:
    center: Tuple[float, float, float]
    velocity: Tuple[float, float, float]
    radius: float

    def at(self, epoch: int) -> Tuple[float, float, float]:
        return tuple(c + v * epoch for c, v in zip(self.center, self.velocity))


def make_objects(params: AMRParams) -> List[Sphere]:
    rng = np.random.default_rng(params.seed)
    objs = []
    dims = (params.nx, params.ny, params.nz)
    for _ in range(params.n_objects):
        center = tuple(float(rng.uniform(0.25, 0.75) * d) for d in dims)
        velocity = tuple(float(rng.uniform(-0.15, 0.15) * d) for d in dims)
        radius = float(rng.uniform(0.2, 0.4) * min(dims))
        objs.append(Sphere(center, velocity, radius))
    return objs


class Mesh:
    """One epoch's set of leaf blocks plus its partition and face pairs."""

    def __init__(self, params: AMRParams, leaves: Set[BlockKey]):
        self.params = params
        self.leaves: FrozenSet[BlockKey] = frozenset(leaves)
        #: deterministic global ordering (Morton) of the leaves
        self.order: List[BlockKey] = sorted(leaves, key=self._morton)
        self.index: Dict[BlockKey, int] = {b: i for i, b in enumerate(self.order)}
        self.owner: Dict[BlockKey, int] = {}
        #: directed face pairs (src, dst, face_id) in deterministic order
        self.pairs: List[Tuple[BlockKey, BlockKey, int]] = []
        self._build_pairs()

    # ------------------------------------------------------------------
    def _morton(self, b: BlockKey) -> Tuple:
        L, ix, iy, iz = b
        # origin at the finest resolution, then interleave bits
        shift = self.params.max_level - L
        fx, fy, fz = ix << shift, iy << shift, iz << shift
        key = 0
        for bit in range(16):
            key |= ((fx >> bit) & 1) << (3 * bit + 2)
            key |= ((fy >> bit) & 1) << (3 * bit + 1)
            key |= ((fz >> bit) & 1) << (3 * bit)
        return (key, L)

    def partition(self, n_ranks: int) -> None:
        """Equal-block-count split of the Morton order (miniAMR's default
        load balancing)."""
        n = len(self.order)
        base, extra = divmod(n, n_ranks)
        pos = 0
        for r in range(n_ranks):
            cnt = base + (1 if r < extra else 0)
            for b in self.order[pos : pos + cnt]:
                self.owner[b] = r
            pos += cnt

    # ------------------------------------------------------------------
    def _dims_at(self, level: int) -> Tuple[int, int, int]:
        p = self.params
        return (p.nx << level, p.ny << level, p.nz << level)

    def face_neighbors(self, b: BlockKey, face: int) -> List[BlockKey]:
        """Leaf blocks adjacent to ``b`` across ``face`` (0..5). With 2:1
        balance: one same-level, one coarser, or four finer leaves."""
        L, ix, iy, iz = b
        axis, sign = FACES[face]
        coord = [ix, iy, iz]
        coord[axis] += sign
        dims = self._dims_at(L)
        if not 0 <= coord[axis] < dims[axis]:
            return []
        same = (L, coord[0], coord[1], coord[2])
        if same in self.leaves:
            return [same]
        if L > 0:
            parent = (L - 1, coord[0] // 2, coord[1] // 2, coord[2] // 2)
            if parent in self.leaves:
                return [parent]
        # four finer children touching the shared face
        if L < self.params.max_level:
            cx, cy, cz = coord[0] * 2, coord[1] * 2, coord[2] * 2
            if sign < 0:
                # neighbour is on the -axis side; its face children are the
                # ones with max index along the axis
                offs_axis = [1]
            else:
                offs_axis = [0]
            out = []
            for da in offs_axis:
                for d1 in (0, 1):
                    for d2 in (0, 1):
                        d = [0, 0, 0]
                        d[axis] = da
                        other = [a for a in (0, 1, 2) if a != axis]
                        d[other[0]] = d1
                        d[other[1]] = d2
                        cand = (L + 1, cx + d[0], cy + d[1], cz + d[2])
                        if cand in self.leaves:
                            out.append(cand)
            return sorted(out)
        return []

    def _build_pairs(self) -> None:
        for b in self.order:
            for face in range(6):
                for nb in self.face_neighbors(b, face):
                    # b sends its face data to nb
                    self.pairs.append((b, nb, face))

    def local_blocks(self, rank: int) -> List[BlockKey]:
        return [b for b in self.order if self.owner[b] == rank]

    @property
    def n_blocks(self) -> int:
        return len(self.order)


# ----------------------------------------------------------------------
# mesh construction per epoch
# ----------------------------------------------------------------------

def _required_level(params: AMRParams, objs: Sequence[Sphere], epoch: int,
                    center: Tuple[float, float, float]) -> int:
    """Distance-to-surface refinement bands: closer to an object surface
    means finer, like miniAMR's surface-intersection refinement."""
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


def build_mesh(params: AMRParams, objs: Sequence[Sphere], epoch: int) -> Mesh:
    """Build the 2:1-balanced leaf set for one refinement epoch."""
    leaves: Set[BlockKey] = set()

    def refine(b: BlockKey) -> None:
        L, ix, iy, iz = b
        size = 1.0 / (1 << L)  # block edge in level-0 units
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
    return Mesh(params, leaves)


def _enforce_2to1(params: AMRParams, leaves: Set[BlockKey]) -> None:
    """Refine any leaf whose face neighbour region is ≥2 levels finer."""
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
                # is any leaf ≥2 levels finer inside the neighbour region?
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
    return


def _has_leaf_finer_than(leaves: Set[BlockKey], region: BlockKey, limit: int,
                         params: AMRParams) -> bool:
    """True if ``region`` (a level-L index cube) contains a leaf strictly
    finer than ``limit``."""
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


@dataclass
class MeshSchedule:
    """The full deterministic mesh timeline of one run."""

    params: AMRParams
    meshes: List[Mesh]
    #: per epoch > 0: (new block, source block in previous mesh,
    #: old owner, new owner) for every block whose data must migrate
    moves: List[List[Tuple[BlockKey, BlockKey, int, int]]] = field(default_factory=list)

    def epoch_of_step(self, step: int) -> int:
        return step // self.params.refine_every


def build_mesh_schedule(params: AMRParams, n_ranks: int) -> MeshSchedule:
    objs = make_objects(params)
    meshes = []
    for e in range(params.n_epochs):
        m = build_mesh(params, objs, e)
        m.partition(n_ranks)
        meshes.append(m)
    sched = MeshSchedule(params, meshes)
    for e in range(1, len(meshes)):
        prev, cur = meshes[e - 1], meshes[e]
        moves = []
        for b in cur.order:
            src = source_of(prev, b)
            if src is None:  # pragma: no cover - domain always covered
                continue
            old_owner, new_owner = prev.owner[src], cur.owner[b]
            if old_owner != new_owner:
                moves.append((b, src, old_owner, new_owner))
        sched.moves.append(moves)
    return sched


def source_of(prev: Mesh, b: BlockKey) -> Optional[BlockKey]:
    """The block in the previous mesh whose data initializes ``b``: itself
    if unchanged, its ancestor if ``b`` was refined out of it, or its
    canonical (Morton-first) descendant if ``b`` coarsens several."""
    if b in prev.leaves:
        return b
    L, ix, iy, iz = b
    lvl, x, y, z = L, ix, iy, iz
    while lvl > 0:
        lvl, x, y, z = lvl - 1, x // 2, y // 2, z // 2
        if (lvl, x, y, z) in prev.leaves:
            return (lvl, x, y, z)
    for cand in prev.order:  # Morton order => canonical first descendant
        if _is_descendant(cand, b):
            return cand
    return None


def _is_descendant(cand: BlockKey, b: BlockKey) -> bool:
    cl, cx, cy, cz = cand
    L, ix, iy, iz = b
    if cl <= L:
        return False
    shift = cl - L
    return (cx >> shift, cy >> shift, cz >> shift) == (ix, iy, iz)
