"""Core framework: findings, pragmas, rule registration."""

import pytest

from repro.lint import core
from repro.lint.core import (FileContext, Finding, Rule, get_rule,
                             lint_rules, register_rule)

# Assembled so this test file's own source never contains a live
# pragma (the scanner reads raw source lines).
IGNORE = "# repro: lint-" + "ignore"


def _finding(path="src/x.py", line=3, code="REPRO101", message="m"):
    return Finding(path=path, line=line, code=code, message=message,
                   rule="r")


class TestFinding:
    def test_render_and_dict(self):
        f = _finding()
        assert f.render() == "src/x.py:3: REPRO101 m"
        assert f.to_dict() == {"path": "src/x.py", "line": 3,
                               "code": "REPRO101", "message": "m",
                               "rule": "r"}

    def test_sort_order_is_path_then_line(self):
        a = _finding(path="a.py", line=9)
        b = _finding(path="b.py", line=1)
        assert sorted([b, a]) == [a, b]


class TestPragmas:
    def test_trailing_pragma_targets_its_line(self):
        ctx = FileContext(
            "f.py", f"x = 1  {IGNORE}[REPRO101] why\n")
        assert ctx.pragmas == {1: {"REPRO101"}}
        assert ctx.pragma_line(1) == 1

    def test_standalone_pragma_targets_next_statement(self):
        src = f"{IGNORE}[REPRO102]\n\nx = 1\n"
        ctx = FileContext("f.py", src)
        assert ctx.pragmas == {3: {"REPRO102"}}
        assert ctx.pragma_line(3) == 1

    def test_comma_list(self):
        ctx = FileContext(
            "f.py", f"x = 1  {IGNORE}[REPRO101, REPRO102]\n")
        assert ctx.pragmas[1] == {"REPRO101", "REPRO102"}

    def test_invalid_codes_are_not_pragmas(self):
        ctx = FileContext("f.py", f"x = 1  {IGNORE}[CODE]\n")
        assert ctx.pragmas == {}

    def test_suppresses_matches_line_and_code(self):
        ctx = FileContext(
            "f.py", f"x = 1  {IGNORE}[REPRO101]\n")
        assert ctx.suppresses(_finding(path="f.py", line=1))
        assert not ctx.suppresses(
            _finding(path="f.py", line=1, code="REPRO102"))
        assert not ctx.suppresses(_finding(path="f.py", line=2))

    def test_syntax_error_captured(self):
        ctx = FileContext("f.py", "def broken(:\n")
        assert ctx.tree is None
        assert ctx.syntax_error is not None


class TestRegistry:
    @pytest.fixture(autouse=True)
    def _isolated_registry(self, monkeypatch):
        monkeypatch.setattr(core, "_RULES", dict(core._RULES))

    def test_register_and_lookup(self):
        @register_rule
        class ProbeRule(Rule):
            code = "REPRO998"
            name = "probe-rule"
            scope = ("tests/lint/never/",)

        assert get_rule("REPRO998").name == "probe-rule"
        assert "REPRO998" in lint_rules()

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError, match="must match"):
            @register_rule
            class BadCode(Rule):
                code = "X1"
                name = "bad-code"

    def test_duplicate_code_rejected_then_replaceable(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_rule
            class Clash(Rule):
                code = "REPRO101"
                name = "clash"

        @register_rule(replace=True)
        class Override(Rule):
            code = "REPRO101"
            name = "override"

        assert get_rule("REPRO101").name == "override"

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            @register_rule
            class NameClash(Rule):
                code = "REPRO997"
                name = "unseeded-module-rng"

    def test_unknown_code_lookup(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            get_rule("REPRO000")
