"""Network messages.

A :class:`Message` is the unit the cluster transports between ranks. The
``protocol`` string routes delivery to the substrate endpoint registered for
``(dst_rank, protocol)`` — ``"mpi"`` or ``"gaspi"`` in this code base. The
``kind`` string is substrate-internal (e.g. ``"eager"``, ``"rts"``,
``"write_notify"``).

``payload`` may carry a numpy array, an :class:`Extent` or a small control
tuple. An array is a private copy of the sender's bytes, so a data-mode run
(``compute_data=True``) really moves its values and its numerical results are
checkable. An :class:`Extent` is a cost-model buffer: a size and a dtype with
no contents, which travels as itself because no receiver reads it.
``nbytes`` is what the *wire* sees and is specified separately because
control messages (CTS, acks, notifications) are metadata-sized regardless of
their Python representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np


class Extent:
    """The size and dtype of a flat buffer, without its contents.

    A cost-model run (``compute_data=False``) uses an Extent where no code
    ever reads the buffer's values: the communication layers need only its
    byte count. It is immutable and 1-D. Slicing returns the Extent of the
    slice; any other index raises ``TypeError``, as does every attempt to
    read it as an array. Slice assignment accepts only an Extent of the same
    byte count and dtype, which is how a one-sided write lands in a
    content-free segment.
    """

    __slots__ = ("size", "dtype", "nbytes")

    def __new__(cls, size: int, dtype=np.float64) -> "Extent":
        size = int(size)
        if size < 0:
            raise ValueError(f"Extent size must be non-negative, got {size}")
        return _extent(size, np.dtype(dtype))

    @property
    def shape(self) -> tuple:
        return (self.size,)

    def __getitem__(self, key: slice) -> "Extent":
        if not isinstance(key, slice):
            raise TypeError(
                f"an Extent only supports slicing, got {type(key).__name__}")
        return _extent(len(range(*key.indices(self.size))), self.dtype)

    def __setitem__(self, key: slice, value: "Extent") -> None:
        dst = self[key]
        if not isinstance(value, Extent):
            raise TypeError(
                f"only an Extent can be written into an Extent, got "
                f"{type(value).__name__}")
        if value.nbytes != dst.nbytes or value.dtype != dst.dtype:
            raise ValueError(
                f"Extent write mismatch: {value.nbytes}B {value.dtype} into "
                f"{dst.nbytes}B {dst.dtype}")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Extent is immutable")

    def __array__(self, *args, **kwargs):
        raise TypeError("an Extent has no contents to read as an array")

    def __repr__(self) -> str:
        return f"Extent({self.size}, {self.dtype})"


# slices are made on every send and receive, so they skip the validation
# and the immutability guard through the slot descriptors
_new_extent = object.__new__
_set_size = Extent.size.__set__
_set_dtype = Extent.dtype.__set__
_set_nbytes = Extent.nbytes.__set__


def _extent(size: int, dtype: np.dtype) -> Extent:
    e = _new_extent(Extent)
    _set_size(e, size)
    _set_dtype(e, dtype)
    _set_nbytes(e, size * dtype.itemsize)
    return e


def payload_copy(buf: Any) -> Any:
    """What a message carries for the send buffer ``buf``: nothing for
    ``None``, the Extent itself (it has no contents to copy), else a private
    copy of the array, so the sender may reuse its buffer as soon as the send
    completes locally."""
    if buf is None or isinstance(buf, Extent):
        return buf
    return np.array(buf, copy=True)


@dataclass(slots=True)
class Message:
    src_rank: int
    dst_rank: int
    protocol: str
    kind: str
    nbytes: int
    payload: Any = None
    #: substrate-specific routing metadata (tags, segment ids, queue ids…)
    meta: dict = field(default_factory=dict)
    #: the cluster's send->deliver edge id, set when a tracer saw the send
    eid: Optional[int] = None
    #: stamped by the cluster at injection/delivery
    injected_at: float = 0.0
    delivered_at: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message {self.protocol}.{self.kind} "
            f"{self.src_rank}->{self.dst_rank} {self.nbytes}B>"
        )
