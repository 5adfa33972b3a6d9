"""Walking, rule dispatch, pragma suppression and the baseline gate.

:func:`run_lint` is the one entry point the CLI, the CI gate, the
benchmark and the meta-test all share: collect files, run every file
rule in scope plus the project rules, drop pragma-suppressed findings
(flagging pragmas that suppressed nothing), then split what remains
against the committed baseline.  Explicit ``paths`` restrict the walk
to those files and skip project rules — that mode lints *files*, not
the repository invariants around them (it is what the CI fixture-smoke
uses to prove the gate can fail).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .baseline import BASELINE_NAME, load_baseline, split_baselined
from .core import FileContext, Finding, ProjectContext, lint_rules
from . import rules as _rules  # noqa: F401  (registers the built-ins)

__all__ = ["run_lint", "collect_files", "discover_root", "LintResult",
           "DEFAULT_ROOTS", "EXCLUDED_PREFIXES"]

#: Repo-relative directories walked by default.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples")

#: Walked-path prefixes always skipped: lint fixtures violate rules on
#: purpose.
EXCLUDED_PREFIXES = ("tests/lint/fixtures/",)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    root: Path
    n_files: int
    #: Findings not absorbed by the baseline — the gate fails on these.
    findings: list[Finding] = field(default_factory=list)
    #: Findings the committed baseline grandfathers.
    baselined: list[Finding] = field(default_factory=list)
    #: Findings silenced by a ``lint-ignore`` pragma.
    suppressed: list[Finding] = field(default_factory=list)
    #: Baseline entries that matched nothing (ratchet candidates).
    stale_baseline: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_files": self.n_files,
            "counts": {
                "new": len(self.findings),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "stale_baseline": len(self.stale_baseline),
            },
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": [f.to_dict() for f in self.stale_baseline],
        }


def discover_root(start: Path | None = None) -> Path:
    """The repo root: the nearest ancestor holding ``pyproject.toml``."""
    probe = (start or Path.cwd()).resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def collect_files(root: Path,
                  paths: list[Path] | None = None) -> list[FileContext]:
    """Parse the default tree (or the explicit ``paths``) into
    :class:`FileContext` objects, sorted by relpath for deterministic
    finding order."""
    selected: list[Path] = []
    if paths:
        for path in paths:
            path = path.resolve()
            if path.is_dir():
                selected.extend(sorted(path.rglob("*.py")))
            else:
                selected.append(path)
    else:
        for sub in DEFAULT_ROOTS:
            base = root / sub
            if base.is_dir():
                selected.extend(sorted(base.rglob("*.py")))
    contexts: list[FileContext] = []
    for path in selected:
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        if "__pycache__" in relpath:
            continue
        if not paths and any(relpath.startswith(p)
                             for p in EXCLUDED_PREFIXES):
            continue
        contexts.append(FileContext.read(path, relpath))
    contexts.sort(key=lambda ctx: ctx.relpath)
    return contexts


def _syntax_findings(ctx: FileContext) -> list[Finding]:
    if ctx.syntax_error is None:
        return []
    return [Finding(path=ctx.relpath,
                    line=ctx.syntax_error.lineno or 1,
                    code="REPRO900",
                    message=f"syntax error: {ctx.syntax_error.msg}",
                    rule="parse-error")]


def run_lint(root: Path | None = None, *,
             paths: list[Path] | None = None,
             baseline_path: Path | None = None,
             use_baseline: bool = True,
             select: tuple[str, ...] = ()) -> LintResult:
    """Lint the repo (or ``paths``) and gate against the baseline.

    ``select`` restricts to rule codes with any of the given prefixes
    (e.g. ``("REPRO1", "REPRO604")``); a prefix that matches no
    registered code raises ``ValueError``.  Project rules only run on
    whole-repo walks.
    """
    rules = lint_rules()
    unmatched = [prefix for prefix in select
                 if not any(code.startswith(prefix) for code in rules)]
    if unmatched:
        raise ValueError(
            f"rule-code prefix {', '.join(map(repr, unmatched))} matches "
            f"no rule; registered: {', '.join(sorted(rules))}")
    root = discover_root(root)
    files = collect_files(root, paths)
    project = ProjectContext(root, files)
    active = [rule for rule in rules.values()
              if not select or rule.code.startswith(tuple(select))]

    raw: list[Finding] = []
    for ctx in files:
        raw.extend(_syntax_findings(ctx))
        for rule in active:
            if not rule.project_rule and rule.applies(ctx.relpath):
                raw.extend(rule.check_file(ctx))
    if paths is None:
        for rule in active:
            if rule.project_rule:
                raw.extend(rule.check_project(project))

    kept, suppressed = _apply_pragmas(project, raw)
    kept.extend(_unused_pragmas(project, files, suppressed,
                                select=select))

    baseline: list[Finding] = []
    if use_baseline:
        baseline = load_baseline(
            baseline_path or root / BASELINE_NAME)
    new, baselined, stale = split_baselined(kept, baseline)
    return LintResult(root=root, n_files=len(files), findings=new,
                      baselined=baselined, suppressed=sorted(suppressed),
                      stale_baseline=stale)


def _apply_pragmas(project: ProjectContext, raw: list[Finding]):
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        ctx = project.get(finding.path)
        if ctx is not None and ctx.suppresses(finding):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return kept, suppressed


def _unused_pragmas(project: ProjectContext, files: list[FileContext],
                    suppressed: list[Finding],
                    select: tuple[str, ...] = ()) -> list[Finding]:
    """A ``lint-ignore`` that suppressed nothing is itself a finding —
    stale ignores would otherwise silently pile up.  Skipped under
    ``--select`` (most rules did not run, so "unused" is meaningless).
    """
    if select:
        return []
    used = {(f.path, f.line, f.code) for f in suppressed}
    out: list[Finding] = []
    for ctx in files:
        for target, codes in sorted(ctx.pragmas.items()):
            for code in sorted(codes):
                if (ctx.relpath, target, code) not in used:
                    out.append(Finding(
                        path=ctx.relpath, line=ctx.pragma_line(target),
                        code="REPRO700",
                        message=f"lint-ignore[{code}] suppresses "
                                "nothing; remove the stale pragma",
                        rule="unused-pragma"))
    return out
