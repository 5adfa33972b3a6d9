"""spec_hygiene_violation.py with each finding pragma-suppressed.

REPRO201 anchors at the ``class`` statement (not its decorators), so
the standalone pragma sits between decorator and class line.
"""

from dataclasses import dataclass


@dataclass
# repro: lint-ignore[REPRO201] mutated in-place by a legacy shim
class MutableSpec:
    bits: int = 4
