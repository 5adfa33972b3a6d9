"""Meta-test: the live repository satisfies its own invariants.

This is the same gate CI runs (``repro lint``): every rule over the
whole tree, failing on any finding a pragma does not suppress.  If a
change introduces a finding, either fix it, pragma it with a
justification, or (for a deliberate schema change) bump SCHEMA_VERSION
and refresh the pin.
"""

from pathlib import Path

import pytest

from repro.lint import lint_rules, run_lint


@pytest.fixture(scope="module")
def live_lint():
    """One full-tree lint pass (seconds long) shared by the checks."""
    return run_lint(Path(__file__).resolve().parents[2])


class TestRepoLintsClean:
    def test_live_repo_has_no_new_findings(self, live_lint):
        assert live_lint.ok, "new lint findings:\n" + "\n".join(
            f.render() for f in live_lint.findings)

    def test_walk_covers_the_tree(self, live_lint):
        assert live_lint.n_files > 150


class TestRuleInventory:
    def test_rule_families_registered(self):
        codes = set(lint_rules())
        families = {"REPRO1", "REPRO2", "REPRO5", "REPRO6"}
        assert {c[:6] for c in codes} == families

    def test_every_rule_documents_itself(self):
        for code, rule in lint_rules().items():
            assert rule.description, f"{code} has no description"
            assert rule.name and rule.name != "abstract"
