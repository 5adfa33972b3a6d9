"""The decode replicas' running batch sums stay exact.

Span mode evaluates each span from sums a replica keeps as requests
join, finish and crash: Σ base, the counts of ``(-base) mod Π`` and a
heap of finish clocks.  At every span scheduled, before and after new
joiners enter, those sums must equal the values rebuilt from the
replica's started entries — on a decode-crash + retry scenario (both
crash branches of the span engine, pipelining off and on) and on a
burst that builds large batches.
"""

import numpy as np
import pytest

from repro.api import Runner, Scenario
from repro.sim import engine

#: Decode replicas crash every ~2 s and repair in ~1 s (the span
#: golden's crash scenario).
CRASH = dict(dataset="humaneval", methods=("baseline", "hack"),
             n_requests=60, seed=3,
             faults="replica_crash?mttf=2.0,mttr=1.0", recovery="retry")
BURST = dict(dataset="humaneval", methods=("baseline", "hack"),
             arrival="mmpp?burst=4,duty=0.1,dwell=20", n_requests=200,
             seed=1)

SCENARIOS = {
    "crash/pipelining-off": dict(CRASH, pipelining=False),
    "crash/pipelining-on": dict(CRASH, pipelining=True),
    "burst/n200": BURST,
}


def _check_sums(decode, period):
    started = decode.active[:decode.n_started]
    assert decode.sum_base == sum(e[3] for e in started)
    assert sorted(decode.ends) == sorted(e[2] for e in started)
    if started:
        assert decode.ends[0] == min(e[2] for e in started)
    if period:
        bases = np.array([e[3] for e in started], dtype=np.int64)
        np.testing.assert_array_equal(
            decode.base_hist, np.bincount(-bases % period, minlength=period))
    else:
        assert decode.base_hist is None


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_running_sums_match_active_batch(monkeypatch, name):
    original = engine.Simulator._schedule_span
    seen = {"spans": 0, "max_batch": 0}

    def checking(self, now, idx):
        decode = self._decode[idx]
        period = self.cost_model.stair_period
        _check_sums(decode, period)
        original(self, now, idx)
        _check_sums(decode, period)
        if decode.active:
            seen["spans"] += 1
            seen["max_batch"] = max(seen["max_batch"], decode.n_started)

    monkeypatch.setattr(engine.Simulator, "_schedule_span", checking)
    Runner().run(Scenario(**SCENARIOS[name]))
    assert seen["spans"] > 0
    if name.startswith("burst"):
        assert seen["max_batch"] >= 20
