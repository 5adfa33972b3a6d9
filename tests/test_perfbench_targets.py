"""The benchmark's contract with the program.

``perfbench/tracer.py`` wraps each traced call at
``owner.__dict__[attr]``, so every traced method must stay defined on
the class the tracer names: a method moved to a base class, renamed or
deleted makes every traced benchmark run raise ``KeyError``.  These
tests check that every target is defined where the tracer looks, install
the tracer, check that it wraps and restores every target, and check
the per-request settle counts the span engine promises.  They also
import ``perfbench/workloads.py`` and set up each workload that
``BENCHMARK.json`` declares, at smoke size, so a name the benchmark
uses and the program lost fails here rather than in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.api import Runner, Scenario

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in ``sys.modules``.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")


def test_every_target_is_defined_where_named(tracer_module):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer_module._targets()
               if attr not in owner.__dict__]
    assert not missing


def test_every_declared_workload_imports_and_sets_up():
    workloads = _load("perfbench_workloads",
                      ROOT / "perfbench" / "workloads.py")
    declared = [w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(workloads.WORKLOADS) == sorted(declared)
    for name in declared:
        assert workloads.WORKLOADS[name].setup(seed=1, smoke=True)


def test_installs_and_restores_every_target(tracer_module):
    targets = [(owner, attr) for owner, attr, _, _
               in tracer_module._targets()]
    originals = {(id(owner), attr): owner.__dict__[attr]
                 for owner, attr in targets}
    with tracer_module.installed(tracer_module.Tracer()):
        for owner, attr in targets:
            assert owner.__dict__[attr] is not originals[id(owner), attr]
    for owner, attr in targets:
        assert owner.__dict__[attr] is originals[id(owner), attr], \
            f"{owner.__name__}.{attr} was not restored"


def test_span_engine_settles_each_request_once(tracer_module):
    """One ``accrue_decode`` and one ``add_token_times`` per finished
    request, and no boundary bisection."""
    scenario = Scenario(methods=("baseline", "hack"), dataset="humaneval",
                        arrival="mmpp?burst=4,duty=0.1,dwell=20",
                        n_requests=200, seed=1)
    tracer = tracer_module.Tracer()
    with tracer_module.installed(tracer):
        artifact = Runner().run(scenario)
    layers = tracer.layers()
    decoded = sum(1 for result in artifact.results.values()
                  for req in result.requests if req.trace.output_len > 1)
    assert layers["sim.request.accrue_decode"]["calls"] == decoded
    assert layers["sim.request.add_token_times"]["calls"] == decoded
    assert "perfmodel.find_boundary" not in layers
