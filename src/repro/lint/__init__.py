"""``repro.lint``: an AST-based invariant checker for this repo.

The codebase rests on conventions nothing else enforces — bit-level
determinism, frozen ``*Spec`` values, float comparisons that can
actually hold, and schema-versioned artifacts where a key change
without a version bump silently breaks ``compare``.
This package turns those conventions into machine-checked law: a
pluggable rule registry (:func:`~repro.lint.core.register_rule`) over a
shared AST framework, per-rule codes, ``# repro: lint-ignore[CODE]``
pragmas, a committed ``lint_baseline.json`` ratchet and text/JSON
reporters, wired up as ``repro lint`` (also the ``repro-lint`` console
script) and a required CI gate.

See the README's "Static analysis & invariants" section for the rule
catalog and how to register a project-local rule.
"""

from .baseline import BASELINE_NAME, load_baseline, write_baseline
from .core import (
    FileContext,
    Finding,
    ProjectContext,
    Rule,
    get_rule,
    lint_rules,
    register_rule,
)
from .runner import LintResult, collect_files, discover_root, run_lint
from .report import render_json, render_text
from . import rules  # noqa: F401  (registers the built-in rules)

__all__ = [
    "BASELINE_NAME",
    "FileContext",
    "Finding",
    "LintResult",
    "ProjectContext",
    "Rule",
    "collect_files",
    "discover_root",
    "get_rule",
    "lint_rules",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_text",
    "run_lint",
    "write_baseline",
]
