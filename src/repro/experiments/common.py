"""Shared experiment machinery — a thin layer over :mod:`repro.api`.

Every experiment module expresses its grid as declarative
:class:`~repro.api.Scenario` / :class:`~repro.api.Sweep` definitions and
runs them through a :class:`~repro.api.Runner`.
"""

from __future__ import annotations

from ..api.artifact import RunArtifact
from ..api.runner import Runner
from ..api.sweep import Sweep
from ..sim.engine import SimulationResult

__all__ = ["jct_reduction", "run_grid"]


def run_grid(sweep: Sweep, scale: float = 1.0,
             runner: Runner | None = None) -> list[RunArtifact]:
    """Run a sweep at ``scale`` (the experiment modules' entry path)."""
    runner = runner or Runner()
    return runner.run_sweep(sweep.override(scale=scale))


def jct_reduction(results: dict[str, SimulationResult], method: str,
                  versus: str) -> float:
    """Fractional JCT reduction of ``method`` relative to ``versus``."""
    return 1.0 - results[method].avg_jct() / results[versus].avg_jct()
