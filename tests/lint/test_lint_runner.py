"""run_lint: walking, exclusion, suppression and REPRO700/900."""

from repro.lint.runner import (EXCLUDED_PREFIXES, collect_files,
                               discover_root, run_lint)

IGNORE = "# repro: lint-" + "ignore"


class TestCollect:
    def test_default_walk_excludes_fixtures(self, repo_root):
        relpaths = [c.relpath for c in collect_files(repo_root)]
        assert "src/repro/lint/runner.py" in relpaths
        assert not any(r.startswith(EXCLUDED_PREFIXES) for r in relpaths)

    def test_explicit_paths_bypass_exclusion(self, repo_root,
                                             fixtures_dir):
        target = fixtures_dir / "safety_violation.py"
        contexts = collect_files(repo_root, [target])
        assert [c.relpath for c in contexts] == \
            ["tests/lint/fixtures/safety_violation.py"]

    def test_discover_root_finds_pyproject(self, repo_root,
                                           fixtures_dir):
        assert discover_root(fixtures_dir) == repo_root


class TestRunOnFixture:
    def test_violating_fixture_fails_the_gate(self, fixtures_dir):
        result = run_lint(
            paths=[fixtures_dir / "safety_violation.py"])
        codes = sorted(f.code for f in result.findings)
        # Unscoped rules + REPRO604 (relpath under tests/); REPRO602
        # stays quiet because the file does not live under the engine.
        assert codes == ["REPRO601", "REPRO601", "REPRO604"]
        assert not result.ok

    def test_pragma_fixture_is_clean_with_suppressions(self,
                                                       fixtures_dir):
        result = run_lint(
            paths=[fixtures_dir / "safety_pragma.py"])
        assert result.ok
        codes = sorted(f.code for f in result.suppressed)
        assert codes == ["REPRO601", "REPRO604"]

    def test_select_restricts_rules_and_skips_repro700(self,
                                                       fixtures_dir):
        result = run_lint(
            paths=[fixtures_dir / "safety_violation.py"], select=("REPRO601",))
        assert sorted(f.code for f in result.findings) == \
            ["REPRO601", "REPRO601"]
        result = run_lint(
            paths=[fixtures_dir / "safety_pragma.py"], select=("REPRO601",))
        assert [f.code for f in result.findings] == []


class TestSyntaxAndPragmaFindings:
    def test_syntax_error_is_repro900(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = run_lint(paths=[bad])
        assert [f.code for f in result.findings] == ["REPRO900"]

    def test_unused_pragma_is_repro700(self, tmp_path):
        lonely = tmp_path / "lonely.py"
        lonely.write_text(f"x = 1  {IGNORE}[REPRO601] nothing here\n")
        result = run_lint(paths=[lonely])
        assert [f.code for f in result.findings] == ["REPRO700"]
        assert "REPRO601" in result.findings[0].message

