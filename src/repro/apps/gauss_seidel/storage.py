"""Per-rank storage for the Gauss–Seidel variants.

Two modes:

* **data mode** (tests, examples): the rank holds its full row band and the
  kernel really runs — results are bit-comparable to the sequential
  reference.
* **model mode** (large benchmark sweeps): compute tasks charge the cost
  model and never touch cell data, so no buffer holds values. The two
  boundary rows a rank sends and its two halos are each an
  :class:`~repro.network.message.Extent` — a size without contents, which is
  all the network and the cost model read — and the rank allocates no array
  at all.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.apps.gauss_seidel.common import GSParams
from repro.network.message import Extent

#: GASPI segment ids used by the TAGASPI variant
SEG_HALO_TOP = 0
SEG_HALO_BOTTOM = 1
SEG_LOCAL = 2


class RankStorage:
    """One rank's arrays and geometry."""

    def __init__(self, params: GSParams, rank: int, n_ranks: int,
                 row_range: Tuple[int, int], grid: Optional[np.ndarray]):
        self.params = params
        self.rank = rank
        self.n_ranks = n_ranks
        self.r0, self.r1 = row_range
        self.local_rows = self.r1 - self.r0
        cols = params.cols
        self.data_mode = grid is not None

        if self.data_mode:
            self.local = np.array(grid[self.r0 : self.r1], copy=True)
            self._boundary = None
            # the first rank's top halo and the last rank's bottom halo hold
            # the fixed global boundaries (params.top_boundary above, zeros
            # below); the side columns are zeros too
            self.halo_top = np.zeros(cols)
            self.halo_bottom = np.zeros(cols)
            if rank == 0:
                self.halo_top[:] = params.top_boundary
            self.side_zeros = np.zeros(max(self.local_rows, 1))
        else:
            self.local = None
            # only the rows that cross the network, stacked so the whole
            # thing can be registered as one GASPI segment
            self._boundary = Extent(2 * cols)
            self._first_row = self._boundary[:cols]
            self._last_row = self._boundary[cols:]
            self.halo_top = Extent(cols)
            self.halo_bottom = Extent(cols)

    # -- boundary-row views (message sources) ---------------------------
    def first_row(self) -> np.ndarray | Extent:
        return self.local[0] if self.data_mode else self._first_row

    def last_row(self) -> np.ndarray | Extent:
        return self.local[-1] if self.data_mode else self._last_row

    def first_row_seg(self, j0: int, width: int) -> Tuple[int, int, int]:
        """(segment, element offset, count) of first-row columns
        [j0, j0+width) for GASPI sends."""
        if self.data_mode:
            return SEG_LOCAL, j0, width
        return SEG_LOCAL, j0, width

    def last_row_seg(self, j0: int, width: int) -> Tuple[int, int, int]:
        if self.data_mode:
            return SEG_LOCAL, (self.local_rows - 1) * self.params.cols + j0, width
        return SEG_LOCAL, self.params.cols + j0, width

    def local_segment_array(self) -> np.ndarray | Extent:
        """The array registered as SEG_LOCAL (write sources)."""
        return self.local if self.data_mode else self._boundary

    @property
    def has_upper(self) -> bool:
        return self.rank > 0

    @property
    def has_lower(self) -> bool:
        return self.rank < self.n_ranks - 1
