"""Grandfathered findings: the committed ``lint_baseline.json`` ratchet.

The baseline lets the gate land strict rules without a flag day: known
findings are recorded once and tolerated, anything *new* fails.  A
baseline entry matches on ``(code, path, message)`` — line numbers
drift as files are edited — and each entry absorbs exactly one
occurrence, so a second copy of a grandfathered bug still fails.
``repro lint --baseline-update`` rewrites the file from the current
findings; entries that no longer match anything are reported as stale
so the ratchet only ever tightens.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from .core import Finding

__all__ = ["BASELINE_NAME", "load_baseline", "write_baseline",
           "split_baselined"]

BASELINE_NAME = "lint_baseline.json"
_FORMAT_VERSION = 1


def load_baseline(path: Path) -> list[Finding]:
    """The grandfathered findings, or [] when no baseline exists."""
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return []
    if not isinstance(data, dict) \
            or data.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path} is not a repro-lint baseline (expected "
            f"format_version {_FORMAT_VERSION})")
    return [Finding(path=f["path"], line=int(f.get("line", 1)),
                    code=f["code"], message=f["message"],
                    rule=f.get("rule", ""))
            for f in data.get("findings", [])]


def write_baseline(path: Path, findings: list[Finding]) -> None:
    payload = {
        "format_version": _FORMAT_VERSION,
        "findings": [f.to_dict() for f in sorted(findings)],
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True,
                               allow_nan=False) + "\n")


def split_baselined(findings: list[Finding], baseline: list[Finding]):
    """``(new, baselined, stale)``: findings not covered by the
    baseline, findings it absorbs, and baseline entries that matched
    nothing (candidates for --baseline-update)."""
    budget = Counter(f.signature() for f in baseline)
    new: list[Finding] = []
    baselined: list[Finding] = []
    for finding in sorted(findings):
        if budget.get(finding.signature(), 0) > 0:
            budget[finding.signature()] -= 1
            baselined.append(finding)
        else:
            new.append(finding)
    stale: list[Finding] = []
    for entry in baseline:
        if budget.get(entry.signature(), 0) > 0:
            budget[entry.signature()] -= 1
            stale.append(entry)
    return new, baselined, stale
