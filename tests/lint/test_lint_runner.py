"""run_lint: walking, exclusion, suppression, baseline and REPRO700/900."""

from repro.lint.baseline import (load_baseline, split_baselined,
                                 write_baseline)
from repro.lint.core import Finding
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
            paths=[fixtures_dir / "safety_violation.py"],
            use_baseline=False)
        codes = sorted(f.code for f in result.findings)
        # Unscoped rules + REPRO604 (relpath under tests/); REPRO602
        # stays quiet because the file does not live under the engine.
        assert codes == ["REPRO601", "REPRO601", "REPRO604"]
        assert not result.ok

    def test_pragma_fixture_is_clean_with_suppressions(self,
                                                       fixtures_dir):
        result = run_lint(
            paths=[fixtures_dir / "safety_pragma.py"],
            use_baseline=False)
        assert result.ok
        codes = sorted(f.code for f in result.suppressed)
        assert codes == ["REPRO601", "REPRO604"]

    def test_select_restricts_rules_and_skips_repro700(self,
                                                       fixtures_dir):
        result = run_lint(
            paths=[fixtures_dir / "safety_violation.py"],
            use_baseline=False, select=("REPRO601",))
        assert sorted(f.code for f in result.findings) == \
            ["REPRO601", "REPRO601"]
        result = run_lint(
            paths=[fixtures_dir / "safety_pragma.py"],
            use_baseline=False, select=("REPRO601",))
        assert [f.code for f in result.findings] == []


class TestSyntaxAndPragmaFindings:
    def test_syntax_error_is_repro900(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = run_lint(paths=[bad], use_baseline=False)
        assert [f.code for f in result.findings] == ["REPRO900"]

    def test_unused_pragma_is_repro700(self, tmp_path):
        lonely = tmp_path / "lonely.py"
        lonely.write_text(f"x = 1  {IGNORE}[REPRO601] nothing here\n")
        result = run_lint(paths=[lonely], use_baseline=False)
        assert [f.code for f in result.findings] == ["REPRO700"]
        assert "REPRO601" in result.findings[0].message


class TestBaseline:
    def _finding(self, message, line=1):
        return Finding(path="src/x.py", line=line, code="REPRO601",
                       message=message, rule="mutable-default-argument")

    def test_split_absorbs_one_occurrence_each(self):
        first = self._finding("shared", line=3)
        second = self._finding("shared", line=9)
        new, baselined, stale = split_baselined(
            [first, second], [self._finding("shared")])
        assert baselined == [first]
        assert new == [second]
        assert stale == []

    def test_stale_entries_are_reported(self):
        new, baselined, stale = split_baselined(
            [], [self._finding("gone")])
        assert (new, baselined) == ([], [])
        assert [f.message for f in stale] == ["gone"]

    def test_write_then_load_round_trips(self, tmp_path):
        path = tmp_path / "lint_baseline.json"
        findings = [self._finding("b"), self._finding("a")]
        write_baseline(path, findings)
        assert load_baseline(path) == sorted(findings)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []

    def test_gate_respects_baseline_file(self, fixtures_dir, tmp_path):
        target = fixtures_dir / "safety_violation.py"
        raw = run_lint(paths=[target], use_baseline=False)
        baseline = tmp_path / "lint_baseline.json"
        write_baseline(baseline, raw.findings)
        gated = run_lint(paths=[target], baseline_path=baseline)
        assert gated.ok
        assert len(gated.baselined) == len(raw.findings)
