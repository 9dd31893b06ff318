"""Static determinism lint over the source tree.

The simulator's reproducibility contract — identical ``(spec, params,
seed)`` ⇒ bit-identical results and traces — survives only if no
simulation path consults process-global state. Three patterns have each
broken (or nearly broken) that contract in practice, and this pass bans
them mechanically:

* **wallclock / global randomness** — ``time.time()`` & friends,
  ``datetime.now()``, and module-level ``random.*`` calls (the hidden
  global generator). Seeded ``random.Random(seed)`` / numpy generators
  are fine. Files under a ``benchmarks`` directory are exempt from the
  *wallclock* rule only: benchmarks measure wall time by design, but still
  must not key state by ``id()`` or iterate sets. Nothing under
  ``src/repro/`` is exempt.
* **``id()``-keyed identity** — CPython reuses addresses after GC, so an
  ``id()``-keyed set can silently conflate a dead object with a live one
  (the pooled :class:`~repro.core.pool.PendingNotification` objects made
  this an actual hazard, not a theoretical one). Use a monotonic serial.
* **direct set iteration** — Python set order depends on insertion
  history and hash randomization of the *process*; feeding it into
  scheduling decisions makes runs history-dependent. Wrap in
  ``sorted(...)``.

A line ending in a comment containing ``analysis-ok`` is exempt (for the
rare justified use — say why in the comment).

Run as ``python -m repro.analysis lint [paths...]``; exits non-zero on
findings. Uses only the stdlib ``ast`` module.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

from dataclasses import dataclass
from typing import List, Sequence, Set

#: wall-clock reading functions of the ``time`` module
_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})
#: wall-clock constructors of ``datetime`` objects
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})
#: ``random`` module attributes that are *not* the hidden global generator
_RANDOM_OK = frozenset({"Random", "SystemRandom", "seed"})

RULE_WALLCLOCK = "wallclock"
RULE_ID_KEY = "id-key"
RULE_SET_ITER = "set-iteration"

#: path components exempt from the wallclock rule (benchmarks measure
#: wall time on purpose)
_WALLCLOCK_EXEMPT_DIRS = frozenset({"benchmarks"})

#: suppression marker; must appear in a *comment* on the finding's line
PRAGMA = "analysis-ok"


def pragma_lines(source: str) -> Set[int]:
    """Line numbers suppressed by ``analysis-ok`` pragma comments.

    A trailing pragma comment suppresses its own line; a standalone
    pragma comment suppresses the next code line (skipping blank and
    comment-only lines), so long statements can carry a justification
    above them. Tokenizing (rather than substring-matching raw lines)
    means the marker inside a string or f-string does not suppress
    anything. Falls back to the empty set on tokenization errors — the
    parse error surfaces as a ``syntax`` finding anyway.
    """
    raw = source.splitlines()

    def is_comment_only(idx: int) -> bool:  # idx is 0-based
        stripped = raw[idx].strip()
        return not stripped or stripped.startswith("#")

    lines: Set[int] = set()
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT or PRAGMA not in tok.string:
                continue
            line, col = tok.start
            if raw[line - 1][:col].strip():
                lines.add(line)  # trailing comment: suppress its own line
            else:
                nxt = line  # 0-based index of the line after the pragma
                while nxt < len(raw) and is_comment_only(nxt):
                    nxt += 1
                if nxt < len(raw):
                    lines.add(nxt + 1)
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return set()
    return lines


@dataclass(frozen=True)
class LintFinding:
    """One static-lint violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def _root_name(node: ast.AST) -> str:
    """Leftmost name of an attribute chain (``a.b.c`` → ``"a"``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, suppressed: Set[int],
                 check_wallclock: bool):
        self.path = path
        self.suppressed = suppressed
        self.check_wallclock = check_wallclock
        self.findings: List[LintFinding] = []

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in self.suppressed:
            return
        self.findings.append(LintFinding(
            path=self.path, line=line, col=getattr(node, "col_offset", 0),
            rule=rule, message=message))

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "id" and node.args:
            self._add(node, RULE_ID_KEY,
                      "id() as identity: addresses are reused after GC; "
                      "key semantic state by a monotonic serial instead")
        elif isinstance(func, ast.Attribute):
            root = _root_name(func)
            attr = func.attr
            if self.check_wallclock:
                if root == "time" and attr in _TIME_FNS:
                    self._add(node, RULE_WALLCLOCK,
                              f"time.{attr}() reads the wall clock; "
                              "simulation paths must use engine.now")
                elif root == "datetime" and attr in _DATETIME_FNS:
                    self._add(node, RULE_WALLCLOCK,
                              f"datetime {attr}() reads the wall clock; "
                              "simulation paths must use engine.now")
            if root == "random" and attr not in _RANDOM_OK:
                self._add(node, RULE_WALLCLOCK,
                          f"random.{attr}() uses the hidden global "
                          "generator; derive a seeded Generator instead "
                          "(repro.sim.derive_rng)")
        self.generic_visit(node)

    # -- direct set iteration -------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._add(node.iter, RULE_SET_ITER,
                      "iterating a set directly: order is not deterministic "
                      "across processes; wrap in sorted(...)")
        self.generic_visit(node)

    def _check_comp(self, node) -> None:
        for gen in node.generators:
            if _is_set_expr(gen.iter):
                self._add(gen.iter, RULE_SET_ITER,
                          "comprehension over a set: order is not "
                          "deterministic across processes; wrap in "
                          "sorted(...)")
        self.generic_visit(node)

    visit_ListComp = _check_comp
    visit_SetComp = _check_comp
    visit_DictComp = _check_comp
    visit_GeneratorExp = _check_comp


def lint_file(path: str) -> List[LintFinding]:
    """Lint one Python file; returns its findings (empty if clean)."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path=path, line=exc.lineno or 0,
                            col=exc.offset or 0, rule="syntax",
                            message=f"cannot parse: {exc.msg}")]
    parts = set(os.path.normpath(path).split(os.sep))
    check_wallclock = not (parts & _WALLCLOCK_EXEMPT_DIRS)
    visitor = _Visitor(path, pragma_lines(source), check_wallclock)
    visitor.visit(tree)
    visitor.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return visitor.findings


def lint_paths(paths: Sequence[str]) -> List[LintFinding]:
    """Lint files and directory trees; findings sorted by
    ``(path, line, col, rule)`` so CI diffs are stable across
    filesystems."""
    files: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        else:
            files.append(p)
    findings: List[LintFinding] = []
    for f in files:
        findings.extend(lint_file(f))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
