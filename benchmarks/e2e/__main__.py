"""Entry point: ``python benchmarks/e2e/__main__.py`` from a bare checkout
(what ``BENCHMARK.json`` runs), or ``PYTHONPATH=src python -m benchmarks.e2e``.

Before ``repro`` is imported, every ``REPRO_*`` environment variable is
cleared so the measured path is the default one users get (``REPRO_ENGINE``
is read at import time), and ``src/`` and the repo root go on ``sys.path``.
"""

import os
import sys
from pathlib import Path


def _bootstrap() -> None:
    here = Path(__file__).resolve().parent
    root = here.parents[1]
    stale = [k for k in os.environ if k.startswith("REPRO_")]
    for key in stale:
        del os.environ[key]
    if stale and "repro" in sys.modules:
        # ``-m`` imported repro through benchmarks/__init__.py under the
        # stale settings: start over in a clean interpreter
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    # script form: this directory is sys.path[0]; its modules must be
    # importable only as benchmarks.e2e.*
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != here]
    for entry in (str(root), str(root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


if __name__ == "__main__":
    _bootstrap()
    try:
        from benchmarks.e2e.cli import main
    except ModuleNotFoundError as exc:
        sys.exit(f"benchmarks.e2e measures the repo's src/repro tree: {exc}")
    sys.exit(main())
