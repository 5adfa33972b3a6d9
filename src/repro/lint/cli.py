"""``repro lint`` / ``repro-lint``: the invariant gate's command line.

::

    python -m repro.lint.cli                  # lint the repo, gate on
                                              # lint_baseline.json
    python -m repro.lint.cli --json           # machine-readable report
    python -m repro.lint.cli --baseline-update   # re-ratchet
    python -m repro.lint.cli --schema-pin-update # after a schema bump
    python -m repro.lint.cli path/to/file.py --no-baseline
    python -m repro.lint.cli --list-rules

Exit status 1 means new (non-baselined, non-suppressed) findings, and
2 a ``--select`` prefix that matches no registered rule.
The same flags hang off the main CLI as ``hack-repro lint``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import BASELINE_NAME, write_baseline
from .core import ProjectContext, lint_rules
from .report import render_json, render_text
from .runner import discover_root, run_lint
from .rules.schema import write_pin

__all__ = ["main", "add_lint_arguments", "run_from_args"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The lint flags, attachable to any argparse parser (the main
    CLI's ``lint`` subcommand reuses them verbatim)."""
    parser.add_argument("paths", nargs="*", type=Path,
                        help="lint only these files/directories "
                             "(skips the cross-file project rules); "
                             "default walks src/, tests/, benchmarks/ "
                             "and examples/")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    parser.add_argument("--baseline", type=Path, default=None,
                        metavar="PATH",
                        help=f"baseline file (default <repo>/"
                             f"{BASELINE_NAME})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline: report every finding")
    parser.add_argument("--baseline-update", action="store_true",
                        help="rewrite the baseline from the current "
                             "findings (ratchet, don't suppress)")
    parser.add_argument("--schema-pin-update", action="store_true",
                        help="refresh the REPRO501 schema pin after a "
                             "SCHEMA_VERSION bump")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule-code prefixes to "
                             "run, e.g. REPRO1,REPRO604")
    parser.add_argument("--verbose", action="store_true",
                        help="also print baselined and suppressed "
                             "findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")


def run_from_args(args) -> int:
    if args.list_rules:
        for code, rule in sorted(lint_rules().items()):
            scope = ", ".join(rule.scope) if rule.scope else (
                "project-wide" if rule.project_rule else "all files")
            print(f"{code} {rule.name:32s} [{scope}]")
            print(f"    {rule.description}")
        return 0

    root = discover_root()
    if args.schema_pin_update:
        pin = write_pin(ProjectContext(root, []))
        print(f"schema pin refreshed for schema_version "
              f"{pin['schema_version']}", file=sys.stderr)
        if not args.baseline_update:
            return 0

    select = tuple(s.strip() for s in args.select.split(",")
                   if s.strip()) if args.select else ()
    try:
        result = run_lint(
            root,
            paths=args.paths or None,
            baseline_path=args.baseline,
            use_baseline=not (args.no_baseline or args.baseline_update),
            select=select,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.baseline_update:
        path = args.baseline or result.root / BASELINE_NAME
        write_baseline(path, result.findings)
        print(f"baseline updated: {len(result.findings)} finding"
              f"{'s' if len(result.findings) != 1 else ''} -> {path}",
              file=sys.stderr)
        return 0

    print(render_json(result) if args.json
          else render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant checker: determinism, "
                    "frozen specs, schema discipline, general safety.")
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
