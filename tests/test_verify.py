"""Tests for the CFG/dataflow static protocol verifier
(``repro.analysis.static``): graph construction, the four protocol
rules with their path-sensitivity, pragma edge cases, CLI output
formats, deterministic ordering, and self-application to the shipped
tree. The runtime-witness (differential) half of each rule lives in
``examples/static/`` and runs via ``tests/test_examples.py``."""

import ast
import json
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import lint_paths, verify_paths
from repro.analysis.cli import main as cli_main
from repro.analysis.lint import pragma_lines
from repro.analysis.static import CFG, build_cfg, verify_source
from repro.analysis.static.dataflow import (
    may_reach,
    reaching_definitions,
    use_def_chains,
)


def cfg_of(src):
    return build_cfg(ast.parse(textwrap.dedent(src)).body)


def findings(src, path="snippet.py"):
    return verify_source(textwrap.dedent(src), path)


def rules_of(src):
    return [f.rule for f in findings(src)]


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
class TestCFG:
    def test_linear_chain(self):
        cfg = cfg_of("a = 1\nb = a\nreturn_value = b\n")
        assert len(cfg.nodes) == 3
        assert cfg.successors(CFG.ENTRY) == {0}
        assert cfg.successors(0) == {1}
        assert cfg.successors(2) == {CFG.EXIT}

    def test_if_join(self):
        cfg = cfg_of("""
            if cond:
                x = 1
            else:
                x = 2
            y = x
        """)
        # if-header branches to both arms; both arms join at y = x
        assert cfg.successors(0) == {1, 2}
        assert cfg.successors(1) == cfg.successors(2) == {3}

    def test_if_without_else_can_skip_body(self):
        cfg = cfg_of("""
            if cond:
                x = 1
            y = 2
        """)
        assert cfg.successors(0) == {1, 2}

    def test_while_has_back_edge_and_zero_trip_exit(self):
        cfg = cfg_of("""
            while cond:
                x = 1
            y = 2
        """)
        assert 0 in cfg.successors(1)  # back edge
        assert 2 in cfg.successors(0)  # zero-trip exit

    def test_while_true_only_exits_through_break(self):
        cfg = cfg_of("""
            while True:
                if done:
                    break
            y = 2
        """)
        head = cfg.nodes[0]
        assert isinstance(head.stmt, ast.While)
        # the only way to `y = 2` is via the break node
        y_idx = next(n.index for n in cfg.nodes
                     if isinstance(n.stmt, ast.Assign))
        preds = cfg.predecessors()[y_idx]
        assert all(isinstance(cfg.nodes[p].stmt, ast.Break) for p in preds)

    def test_return_edges_to_exit(self):
        cfg = cfg_of("""
            if cond:
                return 1
            x = 2
        """)
        ret = next(n.index for n in cfg.nodes
                   if isinstance(n.stmt, ast.Return))
        assert cfg.successors(ret) == {CFG.EXIT}

    def test_try_statement_may_jump_to_handler(self):
        cfg = cfg_of("""
            try:
                x = risky()
                y = 2
            except ValueError:
                z = 3
        """)
        handler = next(n.index for n in cfg.nodes
                       if isinstance(n.stmt, ast.ExceptHandler))
        x_idx = next(n.index for n in cfg.nodes if "x" in n.defs)
        assert handler in cfg.successors(x_idx)

    def test_nested_def_is_one_node_using_free_names(self):
        cfg = cfg_of("""
            req = 1
            def inner():
                return req
        """)
        inner = cfg.nodes[1]
        assert inner.defs == {"inner"}
        assert "req" in inner.uses

    def test_continue_targets_loop_head(self):
        cfg = cfg_of("""
            for i in xs:
                if skip:
                    continue
                y = i
        """)
        cont = next(n.index for n in cfg.nodes
                    if isinstance(n.stmt, ast.Continue))
        assert cfg.successors(cont) == {0}


# ----------------------------------------------------------------------
# dataflow
# ----------------------------------------------------------------------
class TestDataflow:
    def test_reaching_defs_merge_at_join(self):
        cfg = cfg_of("""
            if cond:
                x = 1
            else:
                x = 2
            y = x
        """)
        reach = reaching_definitions(cfg)
        y_idx = 3
        x_defs = {d for (name, d) in reach[y_idx] if name == "x"}
        assert x_defs == {1, 2}

    def test_use_def_chains_and_param_defs(self):
        cfg = cfg_of("y = x\n")
        chains = use_def_chains(cfg, entry_defs=["x"])
        assert chains[0]["x"] == {CFG.ENTRY}

    def test_loop_carried_definition_reaches_header(self):
        cfg = cfg_of("""
            x = 0
            while cond:
                x = x + 1
        """)
        reach = reaching_definitions(cfg)
        header = 1
        assert {d for (n, d) in reach[header] if n == "x"} == {0, 2}

    def test_may_reach_respects_blockers(self):
        cfg = cfg_of("a = 1\nb = 2\nc = 3\n")
        assert may_reach(cfg, cfg.successors(0), {CFG.EXIT}, set())
        assert not may_reach(cfg, cfg.successors(0), {CFG.EXIT}, {1})
        assert not may_reach(cfg, cfg.successors(0), {2}, {1})


# ----------------------------------------------------------------------
# rule 1: unwaited-request
# ----------------------------------------------------------------------
class TestUnwaitedRequest:
    def test_dropped_handle_is_flagged(self):
        assert rules_of("""
            def p(drv):
                req = yield from drv.isend(buf, 1, 0)
        """) == ["unwaited-request"]

    def test_wait_on_one_branch_only_is_flagged(self):
        assert rules_of("""
            def p(drv):
                req = yield from drv.irecv(buf, 0, 3)
                if early:
                    return
                yield from drv.wait(req)
        """) == ["unwaited-request"]

    def test_wait_on_every_path_is_clean(self):
        assert rules_of("""
            def p(drv):
                req = yield from drv.irecv(buf, 0, 3)
                if fast:
                    yield from drv.wait(req)
                else:
                    yield from drv.waitall([req])
        """) == []

    def test_append_escape_counts_as_use(self):
        assert rules_of("""
            def p(drv):
                sends = []
                for j in range(4):
                    req = yield from drv.isend(bufs[j], 1, j)
                    sends.append(req)
                yield from drv.waitall(sends)
        """) == []

    def test_loop_overwrite_without_use_is_flagged(self):
        assert rules_of("""
            def p(drv):
                for j in range(4):
                    req = yield from drv.isend(bufs[j], 1, j)
                yield from drv.wait(req)
        """) == ["unwaited-request"]

    def test_closure_capture_counts_as_use(self):
        assert rules_of("""
            def p(drv, rt):
                req = drv.isend(buf, 1, 0)
                def body(task):
                    tampi.iwait(req)
                rt.submit(body, [])
        """) == []

    def test_discarded_expression_result_is_flagged(self):
        assert rules_of("""
            def p(drv):
                yield from drv.irecv(buf, 0, 2)
        """) == ["unwaited-request"]

    def test_yielded_iget_event_is_a_use(self):
        # `yield win.iget(...)` hands the completion event to the engine
        assert rules_of("""
            def p(eng, win):
                yield win.iget(0, out, 1)
        """) == []

    def test_tagaspi_submissions_are_exempt(self):
        # TAGASPI binds pending events to the calling task; the runtime
        # waits them — there is no handle to discharge
        assert rules_of("""
            def p(tagaspi):
                tagaspi.write_notify(0, 0, 1, 0, 0, 8, notif_id=j,
                                     notif_val=1, queue=0)
        """) == []


# ----------------------------------------------------------------------
# rule 2: blocking-in-task
# ----------------------------------------------------------------------
class TestBlockingInTask:
    def test_blocking_wait_in_task_body_is_flagged(self):
        assert rules_of("""
            def body(task):
                mpi.wait(req)
        """) == ["blocking-in-task"]

    def test_tampi_iwait_is_clean(self):
        assert rules_of("""
            def body(task):
                tampi.iwait(mpi.irecv(buf, 0, 1))
        """) == []

    def test_submitted_function_is_a_task_body(self):
        assert rules_of("""
            def work(t):
                gaspi.notify_waitsome(0, 4, 1)
            rt.submit(work, [])
        """) == ["blocking-in-task"]

    def test_non_task_generator_is_clean(self):
        assert rules_of("""
            def main(drv):
                req = yield from drv.irecv(buf, 0, 1)
                yield from drv.wait(req)
        """) == []

    def test_nested_plain_helper_inside_task_is_its_own_scope(self):
        # the nested def is not itself a task body (first arg not `task`,
        # never submitted) so the blocking call is not flagged
        assert rules_of("""
            def body(task):
                def helper(drv):
                    yield from drv.wait(req)
                return helper
        """) == []

    def test_partial_bound_method_is_a_task_body(self):
        # a shared body whose leading arguments are bound with
        # functools.partial takes ``task`` last
        assert rules_of("""
            class Comm:
                def send_up(self, t, j, task):
                    req = self.mpi.isend(buf, 0, t)
                    self.mpi.wait(req)
        """) == ["blocking-in-task"]
        assert rules_of("""
            class Comm:
                def send_up(self, t, j, task):
                    req = self.mpi.isend(buf, 0, t)
                    self.tampi.iwait(req)
        """) == []

    def test_onready_keyword_is_a_task_body(self):
        assert rules_of("""
            def ack(t):
                g.wait(0)
            rt.submit(work, [], onready=ack)
        """) == ["blocking-in-task"]


# ----------------------------------------------------------------------
# rule 3: notification-slot-reuse
# ----------------------------------------------------------------------
class TestSlotReuse:
    def test_double_post_without_consume_is_flagged(self):
        assert rules_of("""
            def p(src):
                src.write_notify(0, 0, 1, 0, 0, 8, notif_id=5,
                                 notif_val=1, queue=0)
                src.write_notify(0, 0, 1, 0, 0, 8, notif_id=5,
                                 notif_val=2, queue=0)
        """) == ["notification-slot-reuse"]

    def test_consume_between_posts_is_clean(self):
        assert rules_of("""
            def p(src, dst):
                src.notify(1, 0, notif_id=7, notif_val=1, queue=0)
                yield from dst.notify_waitsome(0, 7, 1)
                src.notify(1, 0, notif_id=7, notif_val=2, queue=0)
        """) == []

    def test_post_in_loop_without_consume_is_flagged(self):
        assert rules_of("""
            def p(src):
                for i in range(4):
                    src.notify(1, 0, notif_id=3, notif_val=i, queue=0)
        """) == ["notification-slot-reuse"]

    def test_post_in_loop_with_consume_is_clean(self):
        assert rules_of("""
            def p(src, dst):
                for i in range(4):
                    src.notify(1, 0, notif_id=3, notif_val=i, queue=0)
                    yield from dst.notify_waitsome(0, 3, 1)
        """) == []

    def test_variable_ids_are_skipped(self):
        assert rules_of("""
            def p(src):
                for b in range(4):
                    src.write_notify(0, 0, 1, 0, 0, 8, notif_id=b,
                                     notif_val=1, queue=0)
        """) == []

    def test_different_ids_do_not_pair(self):
        assert rules_of("""
            def p(src):
                src.notify(1, 0, notif_id=1, notif_val=1, queue=0)
                src.notify(1, 0, notif_id=2, notif_val=1, queue=0)
        """) == []

    def test_different_destinations_do_not_pair(self):
        assert rules_of("""
            def p(src):
                src.notify(1, 0, notif_id=1, notif_val=1, queue=0)
                src.notify(2, 0, notif_id=1, notif_val=1, queue=0)
        """) == []


# ----------------------------------------------------------------------
# rule 4: unpaired-epoch
# ----------------------------------------------------------------------
class TestUnpairedEpoch:
    def test_lock_without_unlock_is_flagged(self):
        assert rules_of("""
            def p(win):
                win.lock_all(0)
                win.put(0, data, target=1)
        """) == ["unpaired-epoch"]

    def test_lock_unlock_pair_is_clean(self):
        assert rules_of("""
            def p(win):
                win.lock_all(0)
                win.put(0, data, target=1)
                yield from win.unlock_all(0)
        """) == []

    def test_unlock_on_one_branch_only_is_flagged(self):
        assert rules_of("""
            def p(win, close):
                win.lock_all(0)
                if close:
                    yield from win.unlock_all(0)
        """) == ["unpaired-epoch"]

    def test_noprecede_fence_closed_by_next_fence_is_clean(self):
        assert rules_of("""
            def p(win):
                yield from win.fence(0, MPI_MODE_NOPRECEDE)
                win.put(0, data, target=1)
                yield from win.fence(0, MPI_MODE_NOSUCCEED)
        """) == []

    def test_noprecede_fence_without_close_is_flagged(self):
        assert rules_of("""
            def p(win):
                yield from win.fence(0, MPI_MODE_NOPRECEDE)
                win.put(0, data, target=1)
        """) == ["unpaired-epoch"]

    def test_helper_close_with_prefix_receiver_matches(self):
        assert rules_of("""
            def p(self):
                yield from self.window.fence(0, MPI_MODE_NOPRECEDE)
                yield from self._close()
        """) == []

    def test_dict_get_put_never_trigger(self):
        assert rules_of("""
            def p(cache):
                cache.put("k", 1)
                return cache.get("k")
        """) == []


# ----------------------------------------------------------------------
# pragma edge cases (satellite)
# ----------------------------------------------------------------------
class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        assert rules_of("""
            def p(drv):
                req = yield from drv.isend(buf, 1, 0)  # analysis-ok: demo
        """) == []

    def test_multiline_call_pragma_on_first_line(self):
        # the finding anchors at the call's first physical line
        assert rules_of("""
            def p(src):
                src.write_notify(0, 0, 1, 0, 0, 8, notif_id=5,
                                 notif_val=1, queue=0)
                src.write_notify(0, 0, 1, 0, 0, 8,  # analysis-ok: seeded
                                 notif_id=5, notif_val=2, queue=0)
        """) == []

    def test_standalone_pragma_covers_next_code_line(self):
        assert rules_of("""
            def p(drv):
                # analysis-ok: justified here
                req = yield from drv.isend(buf, 1, 0)
        """) == []

    def test_pragma_on_decorated_function_call_line(self):
        assert rules_of("""
            @fixture
            def body(task):
                mpi.wait(req)  # analysis-ok: exercised by the lint test
        """) == []

    def test_pragma_inside_fstring_does_not_suppress(self):
        src = '''
            def p(drv):
                req = yield from drv.isend(f"analysis-ok {x}", 1, 0)
        '''
        assert rules_of(src) == ["unwaited-request"]

    def test_fstring_pragma_does_not_suppress_lint_either(self):
        src = 'x = time.time()\ny = f"analysis-ok"\n'
        assert 1 not in pragma_lines(src)
        assert 2 not in pragma_lines(src)

    def test_pragma_lines_trailing_vs_standalone(self):
        src = ("a = 1  # analysis-ok: same line\n"
               "# analysis-ok: next line\n"
               "# more commentary\n"
               "b = 2\n"
               "c = 3\n")
        assert pragma_lines(src) == {1, 4}


# ----------------------------------------------------------------------
# output formats, ordering, CLI (satellites)
# ----------------------------------------------------------------------
BAD_VERIFY = """def p(drv):
    req = yield from drv.isend(buf, 1, 0)
"""
BAD_LINT = "import time\nx = time.time()\n"


class TestOutputAndCLI:
    def test_findings_sorted_by_path_line_col_rule(self, tmp_path):
        # written b-then-a; two rules anchored on the same line
        (tmp_path / "b.py").write_text(BAD_VERIFY)
        (tmp_path / "a.py").write_text(
            "def body(task):\n"
            "    req = mpi.wait(mpi.irecv(buf, 0, 1))\n"
            "    del req\n")
        fs = verify_paths([str(tmp_path)])
        keys = [(f.path, f.line, f.col, f.rule) for f in fs]
        assert keys == sorted(keys)
        assert [f.path.endswith("a.py") for f in fs] == \
            [True] * (len(fs) - 1) + [False]

    def test_lint_paths_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text(BAD_LINT)
        (tmp_path / "a.py").write_text(BAD_LINT)
        fs = lint_paths([str(tmp_path)])
        keys = [(f.path, f.line, f.col, f.rule) for f in fs]
        assert keys == sorted(keys) and len(fs) == 2

    def test_verify_cli_json_format(self, tmp_path, capsys):
        p = tmp_path / "bad.py"
        p.write_text(BAD_VERIFY)
        rc = cli_main(["verify", str(p), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out[0]["rule"] == "unwaited-request"
        assert set(out[0]) == {"path", "line", "col", "rule", "message"}

    def test_lint_cli_json_format(self, tmp_path, capsys):
        p = tmp_path / "bad.py"
        p.write_text(BAD_LINT)
        rc = cli_main(["lint", str(p), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1 and out[0]["rule"] == "wallclock"

    def test_verify_cli_clean_exit(self, tmp_path, capsys):
        p = tmp_path / "ok.py"
        p.write_text("x = 1\n")
        assert cli_main(["verify", str(p)]) == 0
        assert "verify clean" in capsys.readouterr().out

    def test_verify_cli_exclude(self, tmp_path, capsys):
        sub = tmp_path / "seeded"
        sub.mkdir()
        (sub / "bad.py").write_text(BAD_VERIFY)
        assert cli_main(["verify", str(tmp_path),
                         "--exclude", str(sub)]) == 0
        capsys.readouterr()

    def test_repro_verify_entry_point(self):
        rc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.analysis.cli import verify_main; "
             "sys.exit(verify_main(['examples/static', '--format',"
             " 'json']))"],
            capture_output=True, text=True)
        assert rc.returncode == 1
        rules = {f["rule"] for f in json.loads(rc.stdout)}
        assert rules == {"unwaited-request", "blocking-in-task",
                         "notification-slot-reuse", "unpaired-epoch"}

    def test_syntax_error_is_a_finding(self, tmp_path):
        p = tmp_path / "broken.py"
        p.write_text("def f(:\n")
        fs = verify_paths([str(p)])
        assert [f.rule for f in fs] == ["syntax"]


# ----------------------------------------------------------------------
# self-application (acceptance gate)
# ----------------------------------------------------------------------
class TestSelfApplication:
    def test_shipped_tree_verifies_clean(self):
        fs = verify_paths(["src", "examples", "benchmarks", "tests"],
                          exclude=["examples/static"])
        assert fs == [], "\n".join(str(f) for f in fs)

    def test_each_rule_fires_on_its_seeded_example(self):
        fs = verify_paths(["examples/static"])
        by_rule = {}
        for f in fs:
            by_rule.setdefault(f.rule, []).append(f.path)
        assert by_rule == {
            "unwaited-request": ["examples/static/unwaited_request.py"],
            "blocking-in-task": ["examples/static/blocking_in_task.py"],
            "notification-slot-reuse": ["examples/static/slot_reuse.py"],
            "unpaired-epoch": ["examples/static/unpaired_epoch.py"],
        }
