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
values can be compared bit-for-bit. It takes time linear in the blocks: a
table-driven Morton key, a worklist for the 2:1 balance, one dictionary
probe per face for the pairs and a first-descendant index for
:func:`source_of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

BlockKey = Tuple[int, int, int, int]  # (level, ix, iy, iz)


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


#: per face id 0..5: its axis and sign, its unit step, and the offsets of
#: the four finer children of the cube across it that touch the shared
#: face, in ascending key order
_FACE_GEOMETRY = [
    (0, -1, -1, 0, 0, ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))),
    (0, +1, +1, 0, 0, ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))),
    (1, -1, 0, -1, 0, ((0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1))),
    (1, +1, 0, +1, 0, ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))),
    (2, -1, 0, 0, -1, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))),
    (2, +1, 0, 0, +1, ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))),
]


def _spread_bits(v: int) -> int:
    """Move bit ``k`` of the byte ``v`` to bit ``3k``."""
    v = (v | v << 8) & 0xF00F
    v = (v | v << 4) & 0xC30C3
    return (v | v << 2) & 0x249249


_SPREAD = [_spread_bits(v) for v in range(256)]


class Mesh:
    """One epoch's set of leaf blocks plus its partition and face pairs.

    ``order`` holds the canonical key tuples: ``pairs`` and the plans built
    from them reuse those objects rather than making equal copies."""

    def __init__(self, params: AMRParams, leaves: Set[BlockKey]):
        self.params = params
        self.leaves: FrozenSet[BlockKey] = frozenset(leaves)
        #: deterministic global ordering (Morton) of the leaves
        self.order: List[BlockKey] = sorted(leaves, key=self._morton)
        self.index: Dict[BlockKey, int] = {b: i for i, b in enumerate(self.order)}
        self.owner: Dict[BlockKey, int] = {}
        #: per level: the index-space size along each axis
        self._extent = [(params.nx << L, params.ny << L, params.nz << L)
                        for L in range(params.max_level + 1)]
        #: directed face pairs (src, dst, face_id) in deterministic order
        self.pairs: List[Tuple[BlockKey, BlockKey, int]] = []
        self._build_pairs()

    # ------------------------------------------------------------------
    def _morton(self, b: BlockKey) -> Tuple:
        """Sort key: the low 16 bits of each finest-level origin
        coordinate, interleaved (x highest), then the level."""
        L, ix, iy, iz = b
        shift = self.params.max_level - L
        sp = _SPREAD
        key = 0
        for c, pos in ((ix, 2), (iy, 1), (iz, 0)):
            f = c << shift
            key |= (sp[f & 0xFF] | sp[(f >> 8) & 0xFF] << 24) << pos
        return (key, L)

    def partition(self, n_ranks: int) -> None:
        """Equal-block-count split of the Morton order (miniAMR's default
        load balancing)."""
        base, extra = divmod(len(self.order), n_ranks)
        cuts = [0]
        for r in range(n_ranks):
            lo, hi = cuts[-1], cuts[-1] + base + (1 if r < extra else 0)
            self.owner.update(dict.fromkeys(self.order[lo:hi], r))
            cuts.append(hi)
        self._cuts = cuts

    # ------------------------------------------------------------------
    def face_neighbors(self, b: BlockKey, face: int) -> List[BlockKey]:
        """Leaf blocks adjacent to ``b`` across ``face`` (0..5). With 2:1
        balance: one same-level, one coarser, or four finer leaves."""
        out: List[Tuple[BlockKey, BlockKey, int]] = []
        self._add_pairs(b, ((face, _FACE_GEOMETRY[face]),), out)
        return [nb for _b, nb, _face in out]

    def _build_pairs(self) -> None:
        faces = tuple(enumerate(_FACE_GEOMETRY))
        for b in self.order:
            self._add_pairs(b, faces, self.pairs)

    def _add_pairs(self, b: BlockKey, faces, out: list) -> None:
        """Append ``(b, nb, face)`` for each leaf ``nb`` adjacent to ``b``
        across each ``(face, geometry)`` of ``faces``: the same-level leaf,
        else the coarser one, else the finer ones in key order."""
        L, ix, iy, iz = b
        get, order, lim = self.index.get, self.order, self._extent[L]
        finest, append = L == self.params.max_level, out.append
        for face, (axis, sign, dx, dy, dz, kids) in faces:
            if not 0 <= b[axis + 1] + sign < lim[axis]:
                continue
            x, y, z = ix + dx, iy + dy, iz + dz
            i = get((L, x, y, z))
            if i is None and L:
                i = get((L - 1, x >> 1, y >> 1, z >> 1))
            if i is not None:
                append((b, order[i], face))  # b sends its face data
            elif not finest:
                x, y, z = 2 * x, 2 * y, 2 * z
                for u, v, w in kids:
                    i = get((L + 1, x + u, y + v, z + w))
                    if i is not None:
                        append((b, order[i], face))

    def local_blocks(self, rank: int) -> List[BlockKey]:
        """``rank``'s blocks in Morton order (a contiguous run of it)."""
        return self.order[self._cuts[rank]:self._cuts[rank + 1]]

    @property
    def n_blocks(self) -> int:
        return len(self.order)

    @cached_property
    def first_descendant(self) -> Dict[BlockKey, BlockKey]:
        """Every leaf and every ancestor of a leaf, mapped to the first
        leaf in Morton order that it contains (a leaf contains itself)."""
        first: Dict[BlockKey, BlockKey] = {}
        for leaf in self.order:
            L, x, y, z = leaf
            while L >= 0:
                first.setdefault((L, x, y, z), leaf)
                L, x, y, z = L - 1, x >> 1, y >> 1, z >> 1
        return first


# ----------------------------------------------------------------------
# mesh construction per epoch
# ----------------------------------------------------------------------

def _required_level(params: AMRParams, spheres: Sequence[tuple],
                    center: Tuple[float, float, float]) -> int:
    """Distance-to-surface refinement bands: closer to an object surface
    means finer, like miniAMR's surface-intersection refinement.
    ``spheres`` holds each object's (centre, radius) at this epoch."""
    best = 0
    x, y, z = center
    for (cx, cy, cz), radius in spheres:
        dist = abs(math.sqrt((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2)
                   - radius)
        lvl = params.max_level - int(dist / 0.6)
        if lvl > best:
            best = lvl
    return min(max(best, 0), params.max_level)


def build_mesh(params: AMRParams, objs: Sequence[Sphere], epoch: int) -> Mesh:
    """Build the 2:1-balanced leaf set for one refinement epoch."""
    leaves: Set[BlockKey] = set()
    spheres = [(o.at(epoch), o.radius) for o in objs]

    def refine(b: BlockKey) -> None:
        L, ix, iy, iz = b
        if L < params.max_level:
            size = 1.0 / (1 << L)  # block edge in level-0 units
            center = ((ix + 0.5) * size, (iy + 0.5) * size, (iz + 0.5) * size)
            if L < _required_level(params, spheres, center):
                for child in _children(b):
                    refine(child)
                return
        leaves.add(b)

    for ijk in product(range(params.nx), range(params.ny), range(params.nz)):
        refine((0, *ijk))

    _enforce_2to1(params, leaves)
    return Mesh(params, leaves)


def _children(b: BlockKey) -> List[BlockKey]:
    L, ix, iy, iz = b
    return [(L + 1, 2 * ix + dx, 2 * iy + dy, 2 * iz + dz)
            for dx, dy, dz in product((0, 1), repeat=3)]


def _enforce_2to1(params: AMRParams, leaves: Set[BlockKey]) -> None:
    """Refine every leaf whose face-neighbour cube (the same-level cube
    across a face) holds a leaf ≥2 levels finer, until none does. Only
    forced refinements happen, so the result is the unique minimal one in
    any visiting order; a refinement can newly force only its children and
    the leaves across a face from one of its ancestors."""
    dims = (params.nx, params.ny, params.nz)

    def across(b: BlockKey):
        """The in-domain same-level cubes across each face of ``b``."""
        L, ix, iy, iz = b
        for axis, _sign, dx, dy, dz, _kids in _FACE_GEOMETRY:
            n = (ix + dx, iy + dy, iz + dz)
            if 0 <= n[axis] < dims[axis] << L:
                yield (L, *n)

    def holds_finer(cube: BlockKey) -> bool:
        """True if ``cube`` holds a leaf ≥2 levels finer: the leaves tile
        the domain, so that is when it lies in no leaf of its level or
        coarser and not all of its children are leaves."""
        L, x, y, z = cube
        for _ in range(L + 1):
            if (L, x, y, z) in leaves:
                return False
            L, x, y, z = L - 1, x >> 1, y >> 1, z >> 1
        return not all(c in leaves for c in _children(cube))

    work = list(leaves)
    while work:
        b = work.pop()
        if (b not in leaves or b[0] >= params.max_level
                or not any(holds_finer(n) for n in across(b))):
            continue
        leaves.discard(b)
        kids = _children(b)
        leaves.update(kids)
        work.extend(kids)
        L, x, y, z = b
        while L > 0:
            L, x, y, z = L - 1, x >> 1, y >> 1, z >> 1
            work.extend(n for n in across((L, x, y, z)) if n in leaves)


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
    for prev, cur in zip(meshes, meshes[1:]):
        moves = []
        for b in cur.order:
            src = source_of(prev, b)
            old_owner, new_owner = prev.owner[src], cur.owner[b]
            if old_owner != new_owner:
                moves.append((b, src, old_owner, new_owner))
        sched.moves.append(moves)
    return sched


def source_of(prev: Mesh, b: BlockKey) -> Optional[BlockKey]:
    """The block in the previous mesh whose data initializes ``b``: itself
    if unchanged, its canonical (Morton-first) descendant if ``b``
    coarsens several, or its ancestor if ``b`` was refined out of it."""
    src = prev.first_descendant.get(b)
    L, x, y, z = b
    while src is None and L > 0:
        L, x, y, z = L - 1, x >> 1, y >> 1, z >> 1
        i = prev.index.get((L, x, y, z))
        src = None if i is None else prev.order[i]
    return src
