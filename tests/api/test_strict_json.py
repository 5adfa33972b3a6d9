"""Every API JSON writer emits standard JSON, and saved artifacts are
compact files that load back to the same content.

``json.dumps`` writes NaN and ±inf as the non-standard tokens ``NaN``
and ``Infinity`` unless told not to; the artifact, scenario and sweep
writers refuse them instead, so a non-finite value fails loudly where
it is written rather than where some other JSON parser reads it.
"""

import dataclasses
import json

import pytest

from repro.api import Runner, RunArtifact, Scenario, Sweep

SMALL = Scenario(methods=("baseline", "hack"), dataset="imdb",
                 n_requests=12, seed=3)


@pytest.fixture(scope="module")
def artifact():
    return Runner().run(SMALL)


class TestNonFiniteRejected:
    def test_artifact(self, artifact):
        data = json.loads(artifact.to_json())
        data["methods"]["hack"]["summary"]["avg_jct_s"] = float("nan")
        broken = RunArtifact.from_dict(data)
        with pytest.raises(ValueError):
            broken.to_json()

    def test_scenario(self):
        # Construction rejects NaN too (tests/api/test_scenario.py); the
        # writer must refuse it on its own, so plant it past validation.
        broken = Scenario()
        object.__setattr__(broken, "load_factor", float("nan"))
        with pytest.raises(ValueError):
            broken.to_json()

    def test_sweep(self):
        sweep = Sweep(base=SMALL, axes=(("load_factor", (0.5, 0.8)),))
        broken = dataclasses.replace(
            sweep, axes=(("load_factor", (0.5, float("nan"))),))
        with pytest.raises(ValueError):
            broken.to_json()

    def test_finite_documents_still_write(self, artifact):
        sweep = Sweep(base=SMALL, axes=(("load_factor", (0.5, 0.8)),))
        for doc in (artifact, SMALL, sweep):
            json.loads(doc.to_json())


class TestCompactSave:
    def test_round_trip_compares_empty(self, artifact, tmp_path):
        loaded = RunArtifact.load(artifact.save(tmp_path))
        diff = loaded.compare(artifact)
        assert diff["equal"]
        assert diff["methods"] == {}
        assert loaded.to_json(indent=1) == artifact.to_json(indent=1)

    def test_file_is_compact(self, artifact, tmp_path):
        text = artifact.save(tmp_path / "a.json").read_text()
        assert text == artifact.to_json(indent=None) + "\n"
        assert text.count("\n") == 1
