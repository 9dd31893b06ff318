"""The per-layer counter registry.

Every substrate keeps its own counters (``NetworkStats``,
``GlobalLock.time_in_mpi``, TAMPI's ``stats_*``, GASPI queue/segment
counters, ``RuntimeStats``). A :class:`MetricsRegistry` holds one collector
callable per layer and sweeps them all into a single flat ``{name: float}``
dict after a job completes — the harness attaches that sweep to
``VariantResult.extra`` so benchmarks report time-in-MPI, lock-wait
fraction, message/notification counts, … alongside throughput.

Collectors returning the same key are **summed** (the natural semantic for
per-rank collectors registered once per rank).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

Collector = Callable[[], Dict[str, float]]


class MetricsRegistry:
    """Named collectors swept into one flat metrics dict."""

    def __init__(self) -> None:
        self._collectors: List[Tuple[str, Collector]] = []

    def register(self, name: str, collector: Collector) -> None:
        """Add ``collector`` (a zero-arg callable returning a flat
        ``{key: number}`` dict) under a diagnostic ``name``."""
        if not callable(collector):
            raise TypeError(f"collector {name!r} is not callable")
        self._collectors.append((name, collector))

    def __len__(self) -> int:
        return len(self._collectors)

    @property
    def names(self) -> List[str]:
        return [n for n, _ in self._collectors]

    def collect(self) -> Dict[str, float]:
        """Sweep all collectors; duplicate keys are summed."""
        out: Dict[str, float] = {}
        for name, collector in self._collectors:
            sample = collector()
            for key, value in sample.items():
                v = float(value)
                out[key] = out.get(key, 0.0) + v if key in out else v
        return out
