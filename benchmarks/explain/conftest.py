"""Wall-clock helpers for the explanation tests.

Construction is never timed; the cyclic GC is collected, then paused,
around each timed region so build-phase garbage is not collected inside
one side of a comparison; both sides of an A/B comparison run
rep-interleaved (A, B, A, B, ...) so slow host drift hits them equally.
"""

from __future__ import annotations

import gc
import time


def timed(build, run) -> float:
    """Wall seconds of ``run(build())``, construction excluded."""
    subject = build()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        run(subject)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def best_of(reps: int, build, run) -> float:
    """min-of-``reps`` wall seconds of ``run(build())``."""
    return min(timed(build, run) for _ in range(reps))


def pairs(reps: int, build_a, run_a, build_b, run_b):
    """``reps`` rep-interleaved samples of two subjects:
    ``(samples_a, samples_b)``, sample *i* of each side run back to back."""
    return tuple(zip(*[(timed(build_a, run_a), timed(build_b, run_b))
                       for _ in range(reps)]))
