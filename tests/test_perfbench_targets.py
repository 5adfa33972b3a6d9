"""The benchmark tracer's contract with the program.

``perfbench/tracer.py`` wraps each traced call at
``owner.__dict__[attr]``, so every traced method must stay defined on
the class the tracer names: a method moved to a base class, renamed or
deleted makes every traced benchmark run raise ``KeyError``.  These
tests install the tracer, check that it wraps and restores every target,
and check the per-request settle counts the span engine promises.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.api import Runner, Scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
