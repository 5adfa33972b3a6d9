"""REPRO601, 602 and 604: the general-safety rule family."""

import pytest

from repro.lint.core import FileContext
from repro.lint.rules.safety import (FloatAssertTestRule,
                                     FloatEqualitySimRule,
                                     MutableDefaultRule,
                                     is_exact_float_literal)

SIM_PATH = "src/repro/sim/fixture_mod.py"
TEST_PATH = "tests/sim/test_fixture_mod.py"


@pytest.mark.parametrize("text,exact", [
    ("0.5", True), ("1.0", True), ("0.25", True), ("2.0", True),
    ("0.3", False), ("1e-9", False), ("3.333", False), ("0.1", False),
    ("95.73", False),
])
def test_is_exact_float_literal(text, exact):
    assert is_exact_float_literal(text) is exact


class TestMutableDefault:
    def test_fires_on_violation_fixture(self, fixture_ctx):
        ctx = fixture_ctx("safety_violation.py", SIM_PATH)
        findings = list(MutableDefaultRule().check_file(ctx))
        assert len(findings) == 2
        assert {f.code for f in findings} == {"REPRO601"}

    def test_clean_fixture_passes(self, fixture_ctx):
        ctx = fixture_ctx("safety_clean.py", SIM_PATH)
        assert list(MutableDefaultRule().check_file(ctx)) == []

    def test_kwonly_and_constructor_defaults(self):
        src = "def f(*, a=dict()):\n    return a\n"
        ctx = FileContext(SIM_PATH, src)
        assert len(list(MutableDefaultRule().check_file(ctx))) == 1

    def test_unscoped(self):
        assert MutableDefaultRule().applies("examples/anything.py")


class TestFloatEqualitySim:
    def test_fires_on_violation_fixture(self, fixture_ctx):
        ctx = fixture_ctx("safety_violation.py", SIM_PATH)
        findings = list(FloatEqualitySimRule().check_file(ctx))
        # 0.3 in close_enough plus 1e-9 in the assert (an assert's
        # comparison is still engine code when homed under sim/).
        assert len(findings) == 2
        assert {f.code for f in findings} == {"REPRO602"}
        assert any("0.3" in f.message for f in findings)

    def test_dyadic_equality_is_legal(self, fixture_ctx):
        ctx = fixture_ctx("safety_clean.py", SIM_PATH)
        assert list(FloatEqualitySimRule().check_file(ctx)) == []

    def test_negated_literal_and_chained_compare(self):
        src = "ok = a == -0.3\nok2 = 0.0 <= b == 0.7\n"
        ctx = FileContext(SIM_PATH, src)
        findings = list(FloatEqualitySimRule().check_file(ctx))
        assert sorted(f.line for f in findings) == [1, 2]

    def test_scope_excludes_tests(self):
        rule = FloatEqualitySimRule()
        assert rule.applies("src/repro/perfmodel/roofline.py")
        assert not rule.applies("tests/sim/test_engine.py")


class TestFloatAssertTest:
    def test_fires_on_violation_fixture(self, fixture_ctx):
        ctx = fixture_ctx("safety_violation.py", TEST_PATH)
        findings = list(FloatAssertTestRule().check_file(ctx))
        assert len(findings) == 1
        assert findings[0].code == "REPRO604"
        assert "1e-9" in findings[0].message

    def test_dyadic_assert_is_legal(self, fixture_ctx):
        ctx = fixture_ctx("safety_clean.py", TEST_PATH)
        assert list(FloatAssertTestRule().check_file(ctx)) == []

    def test_non_assert_comparison_is_ignored(self):
        ctx = FileContext(TEST_PATH, "flag = x == 0.3\n")
        assert list(FloatAssertTestRule().check_file(ctx)) == []

    def test_scope_is_tests(self):
        rule = FloatAssertTestRule()
        assert rule.applies("tests/sim/test_engine.py")
        assert not rule.applies("src/repro/sim/engine.py")


class TestPragmaSuppression:
    def test_every_finding_suppressed(self, fixture_ctx):
        sim_ctx = fixture_ctx("safety_pragma.py", SIM_PATH)
        test_ctx = fixture_ctx("safety_pragma.py", TEST_PATH)
        findings = list(MutableDefaultRule().check_file(sim_ctx))
        assert [f.code for f in findings] == ["REPRO601"]
        assert all(sim_ctx.suppresses(f) for f in findings)
        asserts = list(FloatAssertTestRule().check_file(test_ctx))
        assert [f.code for f in asserts] == ["REPRO604"]
        assert all(test_ctx.suppresses(f) for f in asserts)

    def test_float_equality_pragma(self):
        pragma = "# repro: lint-" + "ignore[REPRO602] sentinel"
        ctx = FileContext(SIM_PATH, f"ok = a == 0.3  {pragma}\n")
        findings = list(FloatEqualitySimRule().check_file(ctx))
        assert [f.code for f in findings] == ["REPRO602"]
        assert ctx.suppresses(findings[0])
