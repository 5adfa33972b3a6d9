"""Meta-test: the live repository satisfies its own invariants.

This is the same gate CI runs (``repro lint``): every rule over the
whole tree, gated against the committed ``lint_baseline.json``.  If a
change introduces a finding, either fix it, pragma it with a
justification, or (for a deliberate schema change) bump SCHEMA_VERSION
and refresh the pin.
"""

from pathlib import Path

import pytest

from repro.lint import lint_rules, run_lint
from repro.lint.baseline import BASELINE_NAME, load_baseline


@pytest.fixture(scope="module")
def live_lint():
    """One full-tree lint pass (seconds long) shared by the checks."""
    return run_lint(Path(__file__).resolve().parents[2])


class TestRepoLintsClean:
    def test_live_repo_has_no_new_findings(self, live_lint):
        assert live_lint.ok, "new lint findings:\n" + "\n".join(
            f.render() for f in live_lint.findings)

    def test_baseline_carries_no_stale_entries(self, live_lint):
        assert live_lint.stale_baseline == [], (
            "baseline entries matching nothing; run "
            "`repro lint --baseline-update`")

    def test_walk_covers_the_tree(self, live_lint):
        assert live_lint.n_files > 150

    def test_committed_baseline_parses(self, repo_root):
        load_baseline(repo_root / BASELINE_NAME)  # raises if malformed


class TestRuleInventory:
    def test_all_five_families_registered(self):
        codes = set(lint_rules())
        families = {"REPRO1", "REPRO2", "REPRO5", "REPRO6"}
        assert {c[:6] for c in codes} >= families

    def test_every_rule_documents_itself(self):
        for code, rule in lint_rules().items():
            assert rule.description, f"{code} has no description"
            assert rule.name and rule.name != "abstract"
