"""GASPI memory segments and notification space.

A :class:`Segment` binds a numpy array (the remotely accessible memory) to
a per-segment notification table. A cost-model run may back a segment by an
:class:`~repro.network.message.Extent` instead: views are then Extents of
the same range, and writes and reads move sizes, not bytes. GASPI semantics
implemented:

* notification values are non-zero 32-bit unsigned ints;
* a notification becomes visible at the target only after the data of the
  same ``write_notify`` is in place (delivery writes data first, then the
  notification, atomically at one simulation instant);
* reading a notification with reset semantics (``consume``) atomically
  returns and clears it, so a value can be consumed exactly once.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.gaspi.errors import GaspiError
from repro.network.message import Extent


class Segment:
    """Remotely accessible memory plus its notification table."""

    __slots__ = ("seg_id", "array", "flat", "notifications", "arrival_counter")

    def __init__(self, seg_id: int, array: np.ndarray | Extent):
        if isinstance(array, Extent):
            self.flat = array
        elif isinstance(array, np.ndarray):
            if not array.flags["C_CONTIGUOUS"]:
                raise GaspiError("segment arrays must be C-contiguous")
            self.flat = array.reshape(-1)
        else:
            raise GaspiError("segments are backed by numpy arrays or Extents")
        self.seg_id = seg_id
        self.array = array
        #: arrived, unconsumed notifications: id -> value
        self.notifications: Dict[int, int] = {}
        #: total notifications ever arrived (diagnostics)
        self.arrival_counter = 0

    # -- memory ----------------------------------------------------------
    def view(self, offset: int, count: int) -> np.ndarray | Extent:
        """Flat element view [offset, offset+count) of the segment."""
        flat = self.flat
        if offset < 0 or count < 0 or offset + count > flat.size:
            raise GaspiError(
                f"segment {self.seg_id}: range [{offset}, {offset + count}) "
                f"outside 0..{flat.size}"
            )
        return flat[offset : offset + count]

    # -- notifications ----------------------------------------------------
    def post_notification(self, notif_id: int, value: int) -> None:
        if value == 0:
            raise GaspiError("GASPI notification values must be non-zero")
        self.notifications[notif_id] = int(value)
        self.arrival_counter += 1

    def peek(self, notif_id: int) -> Optional[int]:
        """Value if arrived and unconsumed, else None. Does not reset."""
        return self.notifications.get(notif_id)

    def consume(self, notif_id: int) -> Optional[int]:
        """Atomically read-and-reset (gaspi_notify_reset). None if absent."""
        return self.notifications.pop(notif_id, None)

    def consume_any(self, begin: int, count: int) -> Optional[Tuple[int, int]]:
        """Read-and-reset the first arrived notification in
        [begin, begin+count); returns (id, value) or None."""
        for nid in range(begin, begin + count):
            val = self.notifications.pop(nid, None)
            if val is not None:
                return nid, val
        return None
