"""Tests for repro.analysis: the simulator-aware static-analysis pass.

Fixture-driven: every rule has at least one bad/good source pair run
through :func:`repro.analysis.lint_source` with a relpath that puts it in
the rule's scope.  Also covers suppression handling, the JSON report
schema, the CLI (exit codes, --rule, --json, --list-rules), and a
meta-test asserting the live tree under src/repro is lint-clean so CI
fails on new violations.
"""

import json
import textwrap

import pytest

import repro.__main__ as repro_main
from repro.analysis import (
    BARE_SUPPRESSION,
    LINT_SCHEMA,
    PARSE_ERROR,
    RULES,
    lint_paths,
    lint_source,
)
from repro.analysis.cli import main as lint_cli
from repro.obs.recorder import TRACE_CATEGORIES


def findings_for(source, relpath="repro/sim/fake.py", rules=None):
    return lint_source(textwrap.dedent(source), relpath, rules=rules)


def active_rules(source, relpath="repro/sim/fake.py", rules=None):
    return sorted(
        f.rule for f in findings_for(source, relpath, rules) if not f.suppressed
    )


# One (bad, good) source pair per rule; the bad source must trigger
# exactly that rule, the good twin must be clean.
RULE_FIXTURES = {
    "no-wall-clock": (
        """
        import time

        def latency(engine):
            return time.perf_counter() - engine.start
        """,
        """
        def latency(engine):
            return engine.now - engine.start
        """,
    ),
    "seeded-rng-only": (
        """
        import random

        def jitter():
            return random.Random().random()
        """,
        """
        import random

        def jitter(seed):
            return random.Random(seed).random()
        """,
    ),
    "no-set-iteration-order": (
        """
        def drain(pending):
            ready = set(pending)
            for task in ready:
                task.run()
        """,
        """
        def drain(pending):
            ready = set(pending)
            for task in sorted(ready):
                task.run()
        """,
    ),
    "int-cycle-arithmetic": (
        """
        def halfway(start_cycles, end_cycles):
            return (start_cycles + end_cycles) / 2
        """,
        """
        def halfway(start_cycles, end_cycles):
            return (start_cycles + end_cycles) // 2
        """,
    ),
    "nonneg-schedule-delay": (
        """
        def kick(engine, due):
            engine.schedule(due - engine.now, lambda: None)
        """,
        """
        def kick(engine, due):
            engine.schedule(max(0, due - engine.now), lambda: None)
        """,
    ),
    "trace-category-registry": (
        """
        def emit(tracer, path, now):
            tracer.instant("dramm", "oops", path, now)
        """,
        """
        def emit(tracer, path, now):
            tracer.instant("dram", "ok", path, now)
        """,
    ),
    "telemetry-event-registry": (
        """
        def record(writer, job):
            writer.emit("job-exploded", job=job)
        """,
        """
        def record(writer, job):
            writer.emit("failed", job=job)
        """,
    ),
    "no-dict-mutation-in-iteration": (
        """
        def prune(table):
            for key, value in table.items():
                if value is None:
                    table.pop(key)
        """,
        """
        def prune(table):
            dead = [k for k, v in table.items() if v is None]
            for key in dead:
                table.pop(key)
        """,
    ),
    "no-mutable-default-arg": (
        """
        def enqueue(item, queue=[]):
            queue.append(item)
            return queue
        """,
        """
        def enqueue(item, queue=None):
            if queue is None:
                queue = []
            queue.append(item)
            return queue
        """,
    ),
    "no-id-order": (
        """
        def order(tasks):
            return sorted(tasks, key=lambda t: id(t))
        """,
        """
        def order(tasks):
            return sorted(tasks, key=lambda t: t.task_id)
        """,
    ),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_bad_fixture_triggers_rule(self, rule_id):
        bad, _good = RULE_FIXTURES[rule_id]
        assert rule_id in active_rules(bad), f"{rule_id} missed its fixture"

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_good_fixture_is_clean(self, rule_id):
        _bad, good = RULE_FIXTURES[rule_id]
        assert active_rules(good) == []

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_rule_is_registered(self, rule_id):
        assert rule_id in RULES
        assert RULES[rule_id].summary

    def test_every_registered_rule_has_a_fixture(self):
        assert sorted(RULES) == sorted(RULE_FIXTURES)


class TestRuleDetails:
    def test_wall_clock_allowed_in_perf_and_main(self):
        bad, _ = RULE_FIXTURES["no-wall-clock"]
        for rel in ("repro/perf/harness.py", "repro/__main__.py",
                    "repro/obs/export.py"):
            assert active_rules(bad, relpath=rel) == []

    def test_wall_clock_catches_from_import(self):
        src = """
        from time import perf_counter

        def t():
            return perf_counter()
        """
        assert "no-wall-clock" in active_rules(src)

    def test_wall_clock_ignores_local_variable_named_time(self):
        src = """
        def pop(queue):
            time, seq, callback = queue[0]
            return time
        """
        assert active_rules(src) == []

    def test_unseeded_default_rng(self):
        src = """
        import numpy as np

        def noise():
            return np.random.default_rng().random()
        """
        assert "seeded-rng-only" in active_rules(src)

    def test_global_numpy_rng_banned_even_seeded(self):
        src = """
        import numpy as np

        def noise():
            np.random.seed(7)
            return np.random.random()
        """
        assert active_rules(src) == ["seeded-rng-only", "seeded-rng-only"]

    def test_set_iteration_outside_ordered_output_dirs_is_fine(self):
        # genomics/ and experiments/ joined the scope when index caching
        # and result collection started feeding deterministic outputs;
        # obs/ (read-side tooling) stays out.
        bad, _ = RULE_FIXTURES["no-set-iteration-order"]
        assert active_rules(bad, relpath="repro/obs/fake.py") == []

    def test_set_iteration_inside_genomics_fires(self):
        bad, _ = RULE_FIXTURES["no-set-iteration-order"]
        assert active_rules(bad, relpath="repro/genomics/fake.py") == [
            "no-set-iteration-order",
        ]

    def test_set_literal_and_union_iteration(self):
        src = """
        def go(a, b):
            for x in {1, 2, 3}:
                print(x)
            for y in set(a) | set(b):
                print(y)
        """
        assert active_rules(src) == [
            "no-set-iteration-order", "no-set-iteration-order",
        ]

    def test_sorted_set_is_fine_everywhere(self):
        src = """
        def go(a):
            items = sorted(set(a))
            return [x for x in sorted({1, 2})] + items
        """
        assert active_rules(src) == []

    def test_set_comprehension_from_set_is_fine(self):
        src = """
        def go(a):
            s = set(a)
            return {x + 1 for x in s}
        """
        assert active_rules(src) == []

    def test_next_iter_on_set_flagged(self):
        src = """
        def one(batch):
            kinds = {m.kind for m in batch}
            return next(iter(kinds))
        """
        assert "no-set-iteration-order" in active_rules(src)

    def test_cycle_division_only_on_cycle_names(self):
        src = """
        def ratio(hits, misses):
            return hits / (hits + misses)
        """
        assert active_rules(src) == []

    def test_float_on_cycles_flagged(self):
        src = """
        def to_ns(total_cycles, tck):
            return float(total_cycles) * tck
        """
        assert "int-cycle-arithmetic" in active_rules(src)

    def test_negative_literal_delay(self):
        src = """
        def rewind(engine):
            engine.schedule(-1, lambda: None)
        """
        assert "nonneg-schedule-delay" in active_rules(src)

    def test_trace_category_must_be_literal(self):
        src = """
        def emit(tracer, cat, path, now):
            tracer.instant(cat, "x", path, now)
        """
        assert "trace-category-registry" in active_rules(src)

    def test_known_categories_accepted(self):
        for cat in TRACE_CATEGORIES:
            src = f"""
            def emit(tracer, path, now):
                tracer.complete({cat!r}, "x", path, now, 1)
            """
            assert active_rules(src) == [], cat

    def test_non_recorder_receivers_ignored(self):
        src = """
        def finish(request, engine):
            request.complete(engine.now)
        """
        assert active_rules(src) == []

    def test_del_during_iteration_flagged(self):
        src = """
        def prune(table):
            for key in table:
                del table[key]
        """
        assert "no-dict-mutation-in-iteration" in active_rules(src)

    def test_parse_error_reported(self):
        findings = findings_for("def broken(:\n    pass\n")
        assert [f.rule for f in findings] == [PARSE_ERROR]


class TestSuppressions:
    BAD_WITH_SUPPRESSION = """
    def halfway(start_cycles, end_cycles):
        # repro: allow[int-cycle-arithmetic] -- derived reporting metric only.
        return (start_cycles + end_cycles) / 2
    """

    def test_line_suppression_applies(self):
        findings = findings_for(self.BAD_WITH_SUPPRESSION)
        assert [f.rule for f in findings] == ["int-cycle-arithmetic"]
        assert findings[0].suppressed
        assert "derived reporting metric" in findings[0].reason

    def test_same_line_suppression(self):
        src = """
        def halfway(a_cycles, b_cycles):
            return (a_cycles + b_cycles) / 2  # repro: allow[int-cycle-arithmetic] -- reporting only.
        """
        findings = findings_for(src)
        assert all(f.suppressed for f in findings)

    def test_multiline_comment_block_suppression(self):
        src = """
        def halfway(a_cycles, b_cycles):
            # repro: allow[int-cycle-arithmetic] -- reporting-only metric,
            # never fed back into event scheduling.
            return (a_cycles + b_cycles) / 2
        """
        findings = findings_for(src)
        assert all(f.suppressed for f in findings)

    def test_file_level_suppression(self):
        src = """
        # repro: allow-file[int-cycle-arithmetic] -- this whole module is reporting.

        def halfway(a_cycles, b_cycles):
            return (a_cycles + b_cycles) / 2

        def quarter(a_cycles):
            return a_cycles / 4
        """
        findings = findings_for(src)
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)

    def test_suppression_only_covers_named_rule(self):
        src = """
        def kick(engine, due_cycles):
            # repro: allow[nonneg-schedule-delay] -- guarded by the caller.
            engine.schedule(due_cycles - engine.now, lambda: None)
        """
        findings = findings_for(src)
        by_rule = {f.rule: f for f in findings}
        assert by_rule["nonneg-schedule-delay"].suppressed

    def test_bare_suppression_is_reported(self):
        src = """
        def halfway(a_cycles, b_cycles):
            # repro: allow[int-cycle-arithmetic]
            return (a_cycles + b_cycles) / 2
        """
        rules = active_rules(src)
        assert BARE_SUPPRESSION in rules

    def test_unknown_rule_in_suppression_reported(self):
        src = """
        X = 1  # repro: allow[no-such-rule] -- some long explanation here.
        """
        assert BARE_SUPPRESSION in active_rules(src)

    def test_rule_filter_skips_hygiene(self):
        src = """
        def halfway(a_cycles, b_cycles):
            # repro: allow[int-cycle-arithmetic]
            return (a_cycles + b_cycles) / 2
        """
        rules = active_rules(src, rules=["no-wall-clock"])
        assert rules == []


class TestReportAndApi:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            lint_source("x = 1\n", "repro/x.py", rules=["nope"])

    def test_report_schema(self, tmp_path):
        bad = tmp_path / "sim" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nNOW = time.time()\n")
        report = lint_paths([tmp_path])
        payload = report.to_dict()
        assert payload["schema"] == LINT_SCHEMA
        assert payload["files_scanned"] == 1
        assert len(payload["findings"]) == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "no-wall-clock"
        assert finding["line"] == 2
        assert "path" in finding and "col" in finding and "message" in finding
        assert payload["rules"]["no-wall-clock"]["active"] == 1
        assert payload["suppressed"] == []
        assert not report.ok

    def test_report_deterministic_ordering(self, tmp_path):
        for name in ("b.py", "a.py"):
            (tmp_path / name).write_text(
                "import time\nX = time.time()\nY = time.time()\n"
            )
        report = lint_paths([tmp_path])
        locations = [(f.path, f.line) for f in report.findings]
        assert locations == sorted(locations)


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert lint_cli([]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_violation_names_rule_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "sim" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\nRNG = random.Random()\n")
        assert lint_cli([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "seeded-rng-only" in out
        assert "bad.py:2:" in out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        out_file = tmp_path / "lint.json"
        assert lint_cli([str(bad), "--json", str(out_file)]) == 1
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == LINT_SCHEMA
        assert payload["findings"][0]["rule"] == "no-mutable-default-arg"

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert lint_cli([str(bad), "--rule", "no-wall-clock"]) == 0
        assert lint_cli([str(bad), "--rule", "no-mutable-default-arg"]) == 1

    def test_unknown_rule_errors(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            lint_cli(["--rule", "bogus"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert lint_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_main_module_dispatches_lint(self, capsys):
        assert repro_main.main(["lint", "--list-rules"]) == 0
        assert "no-wall-clock" in capsys.readouterr().out

    def test_acceptance_seeded_violation(self, tmp_path, capsys):
        """The ISSUE acceptance check: an unseeded random.Random() in a
        sim/ path exits non-zero and names the rule, file, and line."""
        bad = tmp_path / "sim" / "planted.py"
        bad.parent.mkdir()
        bad.write_text("import random\n\n\nR = random.Random()\n")
        assert lint_cli([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "seeded-rng-only" in out
        assert "planted.py:4:" in out

    def test_nonexistent_path_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_cli(["/no/such/path"])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err


class TestLiveTreeIsClean:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        """CI gate: the shipped tree must stay lint-clean."""
        report = lint_paths()
        assert report.files_scanned > 50
        offenders = [
            f"{f.location}: {f.rule}: {f.message}" for f in report.active
        ]
        assert not offenders, "\n".join(offenders)

    def test_every_live_suppression_has_a_reason(self):
        report = lint_paths()
        for finding in report.suppressed:
            assert finding.reason, finding.location

    def test_known_deliberate_suppressions_present(self):
        """The audited deliberate patterns stay suppressed (not deleted)."""
        report = lint_paths()
        suppressed = {(f.path, f.rule) for f in report.suppressed}
        assert ("repro/sim/queueing.py", "no-id-order") in suppressed
        assert ("repro/sim/engine.py", "int-cycle-arithmetic") in suppressed
        assert ("repro/cxl/link.py", "int-cycle-arithmetic") in suppressed
