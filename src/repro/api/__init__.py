"""The unified front door for running anything in this repo.

* :class:`Scenario` — a declarative, JSON-(de)serializable description
  of one simulation cell (model, methods, dataset, cluster, load);
* :class:`Sweep` — cartesian axes over any Scenario field;
* :class:`Runner` — serial or multiprocessing execution returning
* :class:`RunArtifact` — schema-versioned structured results that can
  be saved, loaded, rendered and compared.

The ``repro.experiments`` modules and the ``repro.cli`` subcommands are
thin layers over this package.
"""

from .artifact import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    MethodRun,
    RunArtifact,
    compare_artifacts,
)
from .runner import ResolvedScenario, Runner, resolve, run_sweep
from .scenario import Scenario, model_dataset
from .sweep import Sweep

__all__ = [
    "Scenario",
    "Sweep",
    "Runner",
    "ResolvedScenario",
    "RunArtifact",
    "MethodRun",
    "compare_artifacts",
    "resolve",
    "run_sweep",
    "model_dataset",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
]
