"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json

from .runner import LintResult

__all__ = ["render_text", "render_json"]


def render_text(result: LintResult, *, verbose: bool = False) -> str:
    """Human-readable report: one ``path:line: CODE message`` per new
    finding, then the counts line the CI log greps for."""
    lines = [f.render() for f in result.findings]
    if verbose:
        lines.extend(f"baselined: {f.render()}" for f in result.baselined)
        lines.extend(f"suppressed: {f.render()}"
                     for f in result.suppressed)
    for entry in result.stale_baseline:
        lines.append(f"stale baseline entry: {entry.code} {entry.path} "
                     f"(matches nothing; run --baseline-update)")
    lines.append(
        f"repro lint: {len(result.findings)} finding"
        f"{'s' if len(result.findings) != 1 else ''} "
        f"({len(result.baselined)} baselined, "
        f"{len(result.suppressed)} pragma-suppressed, "
        f"{result.n_files} files)")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (``repro lint --json``)."""
    return json.dumps(result.to_dict(), indent=1, sort_keys=True,
                      allow_nan=False)
