"""File/tree driver for the static protocol verifier.

``verify_source`` parses one file, builds a CFG per function (module
top level included), determines which functions are task bodies, runs
every registered rule, and drops findings suppressed by an
``analysis-ok`` pragma comment. ``verify_paths`` walks directory trees
in deterministic order and returns findings sorted by
``(path, line, col, rule)``.

Task-body detection follows the repo-wide conventions: a function whose
first or last positional parameter is named ``task`` (the ``body(task)``
/ ``onready(task)`` shape the tasking runtime calls, or a shared body
such as ``def send(self, t, j, task)`` whose leading arguments are bound
with :func:`functools.partial`), or a function passed by name as the
first argument of a ``.submit(...)`` / ``.spawn_independent(...)`` call.

Suppression is by *comment token*, not raw substring — an
``analysis-ok`` inside an f-string does not suppress (see
:func:`pragma_lines`). For multi-line calls the finding anchors at the
call's first physical line, so that is where the pragma goes.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import List, Sequence, Set, Union

from repro.analysis.lint import PRAGMA, LintFinding, pragma_lines
from repro.analysis.static.cfg import CFG, build_cfg
from repro.analysis.static.rules import iter_rules

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One analysed function: its AST node, CFG, and role."""

    node: Union[_FuncNode, ast.Module]
    qualname: str
    cfg: CFG
    is_task_body: bool = False

    @property
    def params(self) -> List[str]:
        if isinstance(self.node, ast.Module):
            return []
        a = self.node.args
        return [p.arg for p in (a.posonlyargs + a.args + a.kwonlyargs)]


def _submitted_names(tree: ast.Module) -> Set[str]:
    """Names of functions passed as the body of a task submission."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in ("submit", "spawn_independent"):
            continue
        if node.args and isinstance(node.args[0], ast.Name):
            names.add(node.args[0].id)
        for kw in node.keywords:
            if kw.arg == "onready" and isinstance(kw.value, ast.Name):
                names.add(kw.value.id)
    return names


def _collect_functions(tree: ast.Module) -> List[FunctionInfo]:
    submitted = _submitted_names(tree)
    infos: List[FunctionInfo] = [
        FunctionInfo(tree, "<module>", build_cfg(tree.body))]

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                args = child.args.posonlyargs + child.args.args
                is_task = ((bool(args) and "task" in (args[0].arg, args[-1].arg))
                           or child.name in submitted)
                infos.append(FunctionInfo(
                    child, qual, build_cfg(child.body), is_task))
                walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return infos


def verify_source(source: str, path: str) -> List[LintFinding]:
    """Run every registered rule over one file's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path=path, line=exc.lineno or 0,
                            col=exc.offset or 0, rule="syntax",
                            message=f"cannot parse: {exc.msg}")]
    suppressed = pragma_lines(source)
    findings: List[LintFinding] = []
    for fn in _collect_functions(tree):
        for rule in iter_rules():
            for line, col, name, message in rule.run(fn):
                if line in suppressed:
                    continue
                findings.append(LintFinding(
                    path=path, line=line, col=col, rule=name,
                    message=message))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def verify_file(path: str) -> List[LintFinding]:
    with open(path, "r", encoding="utf-8") as fh:
        return verify_source(fh.read(), path)


def iter_py_files(paths: Sequence[str]) -> List[str]:
    """Python files under ``paths`` in deterministic walk order."""
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
    return files


def _excluded(path: str, excludes: Sequence[str]) -> bool:
    norm = os.path.normpath(path)
    return any(norm.startswith(os.path.normpath(e) + os.sep)
               or norm == os.path.normpath(e) for e in excludes)


def verify_paths(paths: Sequence[str],
                 exclude: Sequence[str] = ()) -> List[LintFinding]:
    """Verify files and directory trees; findings sorted by
    ``(path, line, col, rule)`` so CI diffs are stable across
    filesystems."""
    findings: List[LintFinding] = []
    for f in iter_py_files(paths):
        if _excluded(f, exclude):
            continue
        findings.extend(verify_file(f))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
