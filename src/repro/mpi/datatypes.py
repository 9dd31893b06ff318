"""Wildcards, tag spaces, and buffer helpers.

A buffer throughout the MPI model is one of three things:

* a numpy array (any shape; viewed as a flat byte sequence) — a send
  carries a copy of its bytes and a receive gets them;
* ``None`` — a zero-byte message, used for pure synchronization (the
  paper's §III notification pattern sends an empty two-sided message);
* a :class:`~repro.network.message.Extent` — a cost-model buffer with a
  size and a dtype but no contents. It costs exactly what the array of the
  same size costs, and a send carries the Extent itself, not a copy.

A receive must name the same kind of buffer as the matching send: an
Extent never satisfies an array, so a data-mode receiver cannot silently
get no data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mpi.errors import MPIError
from repro.network.message import Extent

#: match any sending rank
ANY_SOURCE = -1
#: match any tag
ANY_TAG = -2

#: tags at or above this value are reserved for internal collectives
COLLECTIVE_TAG_BASE = 1 << 30

#: wire size of protocol control messages (RTS/CTS/acks), bytes
CONTROL_BYTES = 32


def buffer_nbytes(buf: Optional[np.ndarray | Extent]) -> int:
    if buf is None:
        return 0
    if not isinstance(buf, (np.ndarray, Extent)):
        raise MPIError(
            f"buffers must be numpy arrays, Extents or None, got {type(buf).__name__}")
    return int(buf.nbytes)


def copy_into(dst: Optional[np.ndarray | Extent],
              src: Optional[np.ndarray | Extent]) -> None:
    """Copy the contents of ``src`` into ``dst``.

    Sizes must match; dtypes must match (the model does not re-interpret
    bytes across types). Works for non-contiguous destination views (halo
    columns) via element-wise flat iteration. Two Extents have no contents,
    so after the checks there is nothing to copy; an Extent and an array
    never match.
    """
    if dst is None and src is None:
        return
    if dst is None or src is None:
        raise MPIError("matched a zero-byte message with a non-empty buffer")
    content_free = isinstance(dst, Extent)
    if content_free is not isinstance(src, Extent):
        raise MPIError(
            f"matched a content-free Extent with a numpy buffer: recv "
            f"{type(dst).__name__} vs send {type(src).__name__}")
    if dst.nbytes != src.nbytes:
        raise MPIError(f"buffer size mismatch: recv {dst.nbytes}B vs send {src.nbytes}B")
    if dst.dtype != src.dtype:
        raise MPIError(f"dtype mismatch: recv {dst.dtype} vs send {src.dtype}")
    if content_free:
        return
    if dst.shape == src.shape:
        dst[...] = src
    else:
        dst.flat[:] = src.flat


def validate_tag(tag: int) -> None:
    if tag < 0:
        raise MPIError(f"user tags must be non-negative, got {tag}")
