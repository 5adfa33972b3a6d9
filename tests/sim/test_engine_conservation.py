"""Conservation laws of the simulator, over random small traces.

Every run, whatever subsystems it configures, must end with nothing
lost and nothing left behind:

* every trace request is in exactly one of finished, rejected or
  failed;
* the generated tokens are exactly Σ(``output_len`` − 1) over the
  finished requests (prefill produces each request's first token);
* every decode replica is empty — no queued tokens, no active batch
  and (to rounding) no reserved bytes — and every prefill replica has
  no queued tokens;
* no transfer is in flight and no request is parked for a swap or a
  dispatch.

The subsystem combinations are the ones the span golden pins one at a
time, plus an unconfigured run, decode crashes and a scaling
autoscaler.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.methods import get_method
from repro.model import get_model
from repro.sim import default_cluster
from repro.sim.engine import Simulator
from repro.workload.traces import TraceRequest

L = get_model("L")

COMBOS = {
    "none": {},
    "degrade": dict(admission="degrade?tier=1,method=hack_int4"),
    "shed": dict(admission="shed?queue_max=8"),
    "selection-no-store": dict(selection="slo_tier?tier2=hack_int4"),
    "kvstore": dict(kvstore="tiered"),
    "nic-flap": dict(faults="nic_degrade?factor=0.2,start=1.0,"
                            "duration=20.0+transfer_flap?p_fail=0.1"),
    "prefill-crash": dict(faults="replica_crash?mttf=3.0,mttr=1.0,"
                                 "role=prefill"),
    "decode-crash": dict(faults="replica_crash?mttf=3.0,mttr=1.0"),
    "static-accept-all": dict(autoscaler="static", admission="accept_all"),
    "reactive": dict(autoscaler="reactive?queue_hi=2.0,queue_lo=1.0,"
                                "cooldown_s=2.0,interval_s=1.0,"
                                "cold_start_s=2.0"),
}


@st.composite
def traces(draw):
    """1–24 requests, bursty arrivals, prompts up to 16k tokens (so
    prefill queues build and crashes catch work in flight), sessions
    with shareable prefixes, and three SLO tiers."""
    n = draw(st.integers(1, 24))
    t = 0.0
    trace = []
    for rid in range(n):
        t += draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
        input_len = draw(st.integers(1, 16000))
        trace.append(TraceRequest(
            request_id=rid, arrival_s=t, input_len=input_len,
            output_len=draw(st.integers(1, 40)),
            session_id=draw(st.integers(-1, 2)),
            prefix_len=draw(st.integers(0, input_len - 1)),
            slo_tier=draw(st.integers(0, 2))))
    return trace


@pytest.mark.parametrize("method", ("baseline", "hack"))
@pytest.mark.parametrize("combo", sorted(COMBOS))
@settings(max_examples=8, deadline=None)
@given(trace=traces())
def test_run_conserves_requests_tokens_and_memory(combo, method, trace):
    # Two prefill and two decode replicas: few enough that queues and
    # decode memory fill up, enough that a crash can spare a replica.
    config = default_cluster(L, get_method(method), "A10G",
                             n_prefill_instances=4, n_decode_instances=1,
                             **COMBOS[combo])
    sim = Simulator(config, trace)
    result = sim.run()

    ids = [r.request_id for r in result.requests]
    rejected = [r.request_id for r in result.rejected_requests]
    failed = [r.request_id for r in result.failed_requests]
    terminal = ids + rejected + failed
    assert sorted(terminal) == [tr.request_id for tr in trace]

    assert result.generated_tokens() == sum(
        r.trace.output_len - 1 for r in result.requests)

    for decode in sim._decode:
        assert decode.queued_tokens == 0
        assert abs(decode.used_bytes) <= 1e-9 * decode.capacity_bytes
        assert not decode.active
    for replica in sim._prefill:
        assert replica.queued_tokens == 0
    assert not sim._inflight
    assert not sim._pending_swap
    assert not sim._pending_dispatch
