"""REPRO501: the artifact-schema pin."""

import json

from repro.lint.core import ProjectContext
from repro.lint.rules.schema import (SchemaPinRule, extract_schema,
                                     load_pin, write_pin)


def _schema_rule(root, pin_name="pin.json"):
    rule = SchemaPinRule()
    rule.pin_path = root / pin_name
    return rule


class TestSchemaPin:
    def test_fires_on_unbumped_key_drift(self, mini_project,
                                         fixtures_dir):
        root = fixtures_dir / "schema_violation"
        project = mini_project("schema_violation")
        findings = list(_schema_rule(root).check_project(project))
        assert len(findings) == 1
        f = findings[0]
        assert f.code == "REPRO501"
        assert "without a SCHEMA_VERSION bump" in f.message
        assert "throughput_rps" in f.message
        assert f.path == "src/repro/api/artifact.py"

    def test_matching_pin_passes(self, mini_project, fixtures_dir):
        root = fixtures_dir / "schema_clean"
        project = mini_project("schema_clean")
        assert list(_schema_rule(root).check_project(project)) == []

    def test_pragma_suppresses_at_summary_metrics(self, mini_project,
                                                  fixtures_dir):
        root = fixtures_dir / "schema_pragma"
        project = mini_project("schema_pragma")
        findings = list(_schema_rule(root).check_project(project))
        assert len(findings) == 1
        ctx = project.get("src/repro/api/artifact.py")
        assert ctx.suppresses(findings[0])

    def test_missing_pin_is_a_finding(self, mini_project, fixtures_dir):
        root = fixtures_dir / "schema_clean"
        project = mini_project("schema_clean")
        rule = _schema_rule(root, pin_name="no_such_pin.json")
        findings = list(rule.check_project(project))
        assert len(findings) == 1
        assert "missing or unreadable" in findings[0].message

    def test_version_bump_demands_pin_refresh(self, mini_project,
                                              fixtures_dir, tmp_path):
        project = mini_project("schema_clean")
        pin = json.loads(
            (fixtures_dir / "schema_clean" / "pin.json").read_text())
        pin["schema_version"] = 2
        stale = tmp_path / "pin.json"
        stale.write_text(json.dumps(pin))
        rule = SchemaPinRule()
        rule.pin_path = stale
        findings = list(rule.check_project(project))
        assert len(findings) == 1
        assert "--schema-pin-update" in findings[0].message

    def test_write_pin_round_trips(self, mini_project, tmp_path):
        project = mini_project("schema_clean")
        out = tmp_path / "pin.json"
        pin = write_pin(project, out)
        assert load_pin(out) == pin
        assert pin["schema_version"] == 1
        assert pin["summary_metrics"] == ["mean_jct_s", "p99_jct_s"]

    def test_live_schema_matches_committed_pin(self, repo_root):
        from repro.lint.runner import collect_files
        project = ProjectContext(repo_root, collect_files(repo_root))
        current = extract_schema(project)
        pin = load_pin()
        assert current is not None and pin is not None
        for key in ("schema_version", "summary_metrics",
                    "compare_scalars", "record_fields"):
            assert current[key] == pin[key]
