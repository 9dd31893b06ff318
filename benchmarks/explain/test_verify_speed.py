"""Speed of the CFG/dataflow protocol verifier (docs/analysis.md, "Static
verification"), next to the determinism lint's over the same files.

Times ``verify_paths`` over the trees CI gates (``src examples benchmarks
tests`` minus the seeded bad examples) and over ``src/`` alone, asserting
on the way that both are clean; then checks that each seeded example
under ``examples/static/`` is flagged by its rule. Run from the repository
root: the paths are the ones the CI command line uses.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from benchmarks.explain.conftest import best_of
from repro.analysis.lint import lint_paths
from repro.analysis.static import verify_paths
from repro.analysis.static.verify import iter_py_files

GATE = ["src", "examples", "benchmarks", "tests"]
EXCLUDE = ["examples/static"]
REPS = 3


def _clean(findings):
    assert not findings, "\n".join(str(f) for f in findings)


def test_gated_tree_is_clean():
    n_gate = len(iter_py_files(GATE)) - len(iter_py_files(EXCLUDE))
    n_src = len(iter_py_files(["src"]))
    gate_s = best_of(REPS, lambda: None,
                     lambda _: _clean(verify_paths(GATE, exclude=EXCLUDE)))
    src_s = best_of(REPS, lambda: None,
                    lambda _: _clean(verify_paths(["src"])))
    lint_s = best_of(REPS, lambda: None,
                     lambda _: _clean(lint_paths(["src"])))
    emit(f"verify gate: {n_gate} files in {gate_s:.2f} s "
         f"({n_gate / gate_s:.0f} files/s)\n"
         f"verify src : {n_src} files in {src_s:.2f} s "
         f"({n_src / src_s:.0f} files/s)\n"
         f"lint src   : {n_src} files in {lint_s:.2f} s "
         f"({n_src / lint_s:.0f} files/s)")


def test_seeded_examples_fire_their_rules():
    rules = sorted({f.rule for f in verify_paths(EXCLUDE)})
    assert rules == ["blocking-in-task", "notification-slot-reuse",
                     "unpaired-epoch", "unwaited-request"]
