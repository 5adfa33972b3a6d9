"""The ``sessions`` arrival family: multi-turn traces with shareable
prefixes, per-session SLO classes, determinism and clipping."""

import pytest

from repro.workload import generate_trace, merge_traces
from repro.workload.arrivals import ArrivalSpec, get_arrival_process

ARRIVAL = "sessions?turns=4.0,think_time=20.0,prefix_growth=0.3,tiers=3.0"


def _by_session(trace):
    sessions = {}
    for r in trace:
        sessions.setdefault(r.session_id, []).append(r)
    return sessions


@pytest.fixture(scope="module")
def trace():
    return generate_trace("cocktail", rps=2.0, n_requests=60, seed=7,
                          arrival=ARRIVAL)


class TestInvariants:
    def test_shape(self, trace):
        assert len(trace) == 60
        assert [r.request_id for r in trace] == list(range(60))
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(r.arrival_s > 0 for r in trace)

    def test_multi_turn_structure(self, trace):
        sessions = _by_session(trace)
        assert all(sid >= 0 for sid in sessions)
        assert any(len(turns) > 1 for turns in sessions.values())
        for turns in sessions.values():
            turns.sort(key=lambda r: r.arrival_s)
            assert turns[0].prefix_len == 0
            prev_context = turns[0].input_len + turns[0].output_len
            for r in turns[1:]:
                # the prefix is exactly the prior conversation, and at
                # least one token is always new
                assert r.prefix_len == prev_context
                assert 0 < r.prefix_len < r.input_len
                prev_context = r.input_len + r.output_len
            if len(turns) == 1:
                continue
            grew = [turns[i + 1].prefix_len > turns[i].prefix_len
                    for i in range(1, len(turns) - 1)]
            assert all(grew)      # conversations only accumulate

    def test_slo_tiers_per_session(self, trace):
        sessions = _by_session(trace)
        tiers = {turns[0].slo_tier for turns in sessions.values()}
        assert tiers <= {0, 1, 2} and len(tiers) > 1
        for turns in sessions.values():
            assert len({r.slo_tier for r in turns}) == 1

    def test_deterministic_given_seed(self, trace):
        again = generate_trace("cocktail", rps=2.0, n_requests=60, seed=7,
                               arrival=ARRIVAL)
        assert list(again) == list(trace)
        other = generate_trace("cocktail", rps=2.0, n_requests=60, seed=8,
                               arrival=ARRIVAL)
        assert list(other) != list(trace)

    def test_max_context_clips_and_keeps_one_new_token(self):
        clipped = generate_trace("arxiv", rps=1.0, n_requests=40, seed=3,
                                 arrival="sessions?turns=6.0",
                                 max_context=4096)
        assert clipped.n_input_clipped > 0
        for r in clipped:
            assert r.input_len + r.output_len <= 4096
            assert r.prefix_len < r.input_len


class TestGrammarAndValidation:
    def test_canonicalization(self):
        spec = ArrivalSpec.parse("sessions?think_time=20,turns=4")
        assert spec.canonical() == "sessions?think_time=20.0,turns=4.0"
        params = ArrivalSpec.from_reference(ARRIVAL).resolved_params()
        assert params["tiers"] == 3.0

    @pytest.mark.parametrize("bad", [
        "sessions?turns=0.5",
        "sessions?think_time=0",
        "sessions?prefix_growth=0",
        "sessions?prefix_growth=1.5",
        "sessions?tiers=2.5",
    ])
    def test_out_of_range_params_rejected(self, bad):
        with pytest.raises(ValueError):
            generate_trace("imdb", 1.0, 10, arrival=bad)

    def test_bare_arrival_times_undefined(self):
        family = get_arrival_process("sessions")
        with pytest.raises(ValueError, match="whole traces"):
            family.sample_arrivals(None, 1.0, 10)


class TestMerge:
    def test_session_ids_stay_unique_across_tenants(self):
        a = generate_trace("cocktail", 1.0, 20, seed=1, arrival=ARRIVAL)
        b = generate_trace("imdb", 1.0, 20, seed=1, arrival=ARRIVAL)
        merged = merge_traces(a, b)
        assert len(merged) == 40
        # two tenants both numbering sessions from 0 must not alias in
        # a prefix cache
        n_sessions = len({r.session_id for r in a}) \
            + len({r.session_id for r in b})
        assert len({r.session_id for r in merged}) == n_sessions

    def test_merge_keeps_single_shot_sessions_unset(self):
        a = generate_trace("imdb", 1.0, 10, seed=1)
        merged = merge_traces(a, a)
        assert all(r.session_id == -1 for r in merged)
