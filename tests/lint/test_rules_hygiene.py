"""REPRO201: the spec-hygiene rule."""

from repro.lint.core import FileContext
from repro.lint.rules.spec_hygiene import FrozenSpecRule

SRC_PATH = "src/repro/fixture_mod.py"


class TestFrozenSpec:
    def test_fires_on_violation_fixture(self, fixture_ctx):
        ctx = fixture_ctx("spec_hygiene_violation.py", SRC_PATH)
        findings = list(FrozenSpecRule().check_file(ctx))
        assert {f.code for f in findings} == {"REPRO201"}
        named = {f.message.split("'")[1] for f in findings}
        assert named == {"MutableSpec", "ThawedSpec"}

    def test_clean_fixture_passes(self, fixture_ctx):
        ctx = fixture_ctx("spec_hygiene_clean.py", SRC_PATH)
        assert list(FrozenSpecRule().check_file(ctx)) == []

    def test_non_dataclass_spec_is_ignored(self):
        ctx = FileContext(SRC_PATH, "class FooSpec:\n    pass\n")
        assert list(FrozenSpecRule().check_file(ctx)) == []

    def test_scope_is_src(self):
        rule = FrozenSpecRule()
        assert rule.applies("src/repro/methods/spec.py")
        assert not rule.applies("tests/methods/test_spec.py")


class TestPragmaSuppression:
    def test_every_finding_suppressed(self, fixture_ctx):
        ctx = fixture_ctx("spec_hygiene_pragma.py", SRC_PATH)
        findings = list(FrozenSpecRule().check_file(ctx))
        assert [f.code for f in findings] == ["REPRO201"]
        assert all(ctx.suppresses(f) for f in findings)
