"""Core of ``repro lint``: findings, rules, pragmas and file contexts.

The linter enforces the repo's three unwritten laws — bit-level
determinism, open-registry hygiene and schema discipline — as
machine-checked rules.  A rule is a class registered with
:func:`register_rule` (the same open-registry idiom the rules police);
it inspects one file's AST (:meth:`Rule.check_file`) or the whole tree
at once (:meth:`Rule.check_project`, for cross-file invariants like
the artifact schema pin) and yields :class:`Finding` objects.

Suppression is explicit and auditable: a ``# repro: lint-ignore[CODE]``
comment on the offending line (or on its own line directly above)
silences exactly the named codes there, and pragmas that suppress
nothing are themselves findings (``REPRO700``), so stale ignores cannot
accumulate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "Rule",
    "FileContext",
    "ProjectContext",
    "register_rule",
    "lint_rules",
    "get_rule",
    "PRAGMA_RE",
]

#: ``# repro: lint-ignore[CODE]`` (one code or a comma list) — a
#: trailing free-text justification after the bracket is encouraged.
PRAGMA_RE = re.compile(r"#\s*repro:\s*lint-ignore\[([A-Z0-9_,\s]+)\]")

_CODE_RE = re.compile(r"^REPRO\d{3}$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  #: repo-root-relative posix path
    line: int  #: 1-based
    code: str  #: e.g. ``REPRO101``
    message: str
    rule: str = ""  #: rule name slug, e.g. ``unseeded-module-rng``

    def signature(self) -> tuple[str, str, str]:
        """Baseline identity: line numbers drift as files are edited,
        so grandfathered findings match on (code, path, message)."""
        return (self.code, self.path, self.message)

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "code": self.code,
                "message": self.message, "rule": self.rule}

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


class FileContext:
    """One parsed source file, with its pragma map.

    ``relpath`` is the repo-root-relative posix path the scoping and
    baseline machinery key on; tests may pass a synthetic one to lint a
    fixture *as if* it lived elsewhere (e.g. under ``src/repro/sim/``).
    """

    def __init__(self, relpath: str, source: str):
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.syntax_error: SyntaxError | None = None
        try:
            self.tree: ast.AST | None = ast.parse(source)
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = exc
        #: line (1-based) -> set of suppressed codes at that line.
        self.pragmas: dict[int, set[str]] = {}
        #: pragma anchor line -> line the pragma comment sits on (they
        #: differ for standalone comment-line pragmas).
        self._pragma_at: dict[int, int] = {}
        self._scan_pragmas()

    @classmethod
    def read(cls, path: Path, relpath: str) -> "FileContext":
        return cls(relpath, path.read_text())

    def _scan_pragmas(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            match = PRAGMA_RE.search(text)
            if not match:
                continue
            codes = {c.strip() for c in match.group(1).split(",")
                     if _CODE_RE.match(c.strip())}
            if not codes:
                # Mentions of the pragma syntax in prose (e.g.
                # ``lint-ignore[CODE]`` in a docstring) are not pragmas.
                continue
            target = lineno
            if text.strip().startswith("#"):
                # Standalone pragma line: applies to the next
                # non-blank line (the statement it annotates).
                for follow in range(lineno + 1, len(self.lines) + 1):
                    if self.lines[follow - 1].strip():
                        target = follow
                        break
            self.pragmas.setdefault(target, set()).update(codes)
            self._pragma_at[target] = lineno

    def suppresses(self, finding: Finding) -> bool:
        return finding.code in self.pragmas.get(finding.line, ())

    def pragma_line(self, target: int) -> int:
        """The source line the pragma covering ``target`` sits on."""
        return self._pragma_at.get(target, target)

    def source_segment(self, node: ast.AST) -> str | None:
        return ast.get_source_segment(self.source, node)

    def finding(self, rule: "Rule", node: ast.AST | int,
                message: str) -> Finding:
        line = node if isinstance(node, int) \
            else getattr(node, "lineno", 1)
        return Finding(path=self.relpath, line=line, code=rule.code,
                       message=message, rule=rule.name)


class ProjectContext:
    """The whole walked tree, for cross-file (project) rules."""

    def __init__(self, root: Path, files: list[FileContext]):
        self.root = root
        self.files = files
        self._by_path = {ctx.relpath: ctx for ctx in files}

    def get(self, relpath: str) -> FileContext | None:
        """The walked file at ``relpath``, loading it on demand when
        the walk was restricted to an explicit path list."""
        ctx = self._by_path.get(relpath)
        if ctx is None and (self.root / relpath).is_file():
            ctx = FileContext.read(self.root / relpath, relpath)
            self._by_path[relpath] = ctx
        return ctx


class Rule:
    """Base class for lint rules (subclass + :func:`register_rule`).

    File rules implement :meth:`check_file`; project rules set
    ``project_rule = True`` and implement :meth:`check_project` (run
    once per lint, after every file is parsed).  ``scope`` restricts a
    file rule to repo-relative path prefixes; empty means every walked
    file.
    """

    code: str = ""
    name: str = "abstract"
    description: str = ""
    scope: tuple[str, ...] = ()
    project_rule: bool = False

    def applies(self, relpath: str) -> bool:
        if not self.scope:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def check_file(self, ctx: FileContext):
        return ()

    def check_project(self, project: ProjectContext):
        return ()


_RULES: dict[str, Rule] = {}


def register_rule(cls=None, *, replace: bool = False):
    """Class decorator registering a :class:`Rule` (open registry —
    project-local rules can be added the same way, exactly like
    ``@register_family`` and friends)."""

    def decorator(obj):
        rule = obj() if isinstance(obj, type) else obj
        if not _CODE_RE.match(rule.code or ""):
            raise ValueError(
                f"rule code {rule.code!r} must match {_CODE_RE.pattern}")
        if rule.code in _RULES and not replace:
            raise ValueError(
                f"lint rule {rule.code!r} is already registered; pass "
                "register_rule(replace=True) to override")
        taken = {r.name for c, r in _RULES.items() if c != rule.code}
        if rule.name in taken:
            raise ValueError(
                f"lint rule name {rule.name!r} is already registered")
        _RULES[rule.code] = rule
        return obj

    if cls is not None:
        return decorator(cls)
    return decorator


def lint_rules() -> dict[str, Rule]:
    """All registered rules by code (a copy; registration order)."""
    return dict(_RULES)


def get_rule(code: str) -> Rule:
    try:
        return _RULES[code]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {code!r}; choose from "
            f"{', '.join(sorted(_RULES))}") from None
