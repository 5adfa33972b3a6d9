"""Golden pin of span-mode simulator output, byte for byte.

The span fast path settles decode work in closed form; any change to
how it books that work (per-request accrual, shared token-time vectors,
crash un-crediting) must leave every output bit unchanged.  This file
pins, per scenario, the sha256 of the artifact's ``to_json(indent=1)``
and of every terminal request's ``token_times()``.

Scenarios: the three perfbench simulator workloads at smoke size
(``n_requests // 50``), seeds 1–2, the burst workload at a tenth of
its size (large batches), and a decode-crash scenario with
retry, pipelining on and off, in which both crash branches of the span
engine run: a crash in the middle of a span, and a crash between a
join's truncation and its boundary event.

Regenerate a digest only for an intended behaviour change:
``PYTHONPATH=src python tests/sim/test_span_golden.py``.
"""

import hashlib

import pytest

from repro.api import Runner, Scenario
from repro.sim import engine

#: The perfbench simulator workloads' scenario fields, smoke-sized.
WORKLOADS = {
    "paper-longctx": dict(model="L", prefill_gpu="A10G", dataset="cocktail",
                          methods=("baseline", "hack", "cachegen",
                                   "kvquant"),
                          n_requests=30),
    "burst-shortctx": dict(model="L", prefill_gpu="A10G",
                           dataset="humaneval",
                           arrival="mmpp?burst=4,duty=0.1,dwell=20",
                           methods=("baseline", "hack"), n_requests=60),
    "sessions-tiered": dict(model="L", prefill_gpu="A10G",
                            dataset="cocktail",
                            arrival="sessions?turns=4,think_time=20",
                            kvstore="tiered", selection="congestion",
                            faults="transfer_flap?p_fail=0.02",
                            recovery="retry", autoscaler="reactive",
                            n_prefill_replicas=4, load_factor=0.8,
                            methods=("baseline", "hack"), n_requests=40),
}

#: Decode replicas crash every ~2 s and repair in ~1 s: frequent enough
#: that some crashes land between a join's truncation and its boundary.
CRASH = dict(dataset="humaneval", methods=("baseline", "hack"),
             n_requests=60, seed=3,
             faults="replica_crash?mttf=2.0,mttr=1.0", recovery="retry")

SCENARIOS = {
    **{f"{name}/seed{seed}": dict(fields, seed=seed)
       for name, fields in WORKLOADS.items() for seed in (1, 2)},
    # Bursts at a tenth of full size still build batches of dozens.
    "burst-shortctx/n600": dict(WORKLOADS["burst-shortctx"], seed=1,
                                n_requests=600),
    "crash/pipelining-off": dict(CRASH, pipelining=False),
    "crash/pipelining-on": dict(CRASH, pipelining=True),
}

#: The digests cover values the program builds with ``sum()`` over
#: floats (prefill batch times, summary means).  CPython 3.12 made
#: ``sum()`` compensated, which moves their last bits, so the pins hold
#: only where it adds left to right.
LEFT_TO_RIGHT_SUM = sum([1e16, 1.0, -1e16]) == 0.0

#: scenario -> (sha256 of to_json(indent=1), sha256 of token times)
GOLDEN = {
    "burst-shortctx/n600": (
        "bee978f489fdee6920cc261d5acc82b3fdc04dad38a3a5c512338763ac2879b9",
        "a43548231be98eda491c71e63f20e13df4fde69a3bd9f471955d0cc3dc3b9cfb"),
    "burst-shortctx/seed1": (
        "ade2ae76ba66f9d861b9152e1754d22071a3bc04b1693d921813a930dfcc131d",
        "65fe971fea2b7e339f18706a002a82d7230d10d65afe15f37c4ac7a62d669516"),
    "burst-shortctx/seed2": (
        "934f8b5c61cc3dc546155e8e8b883d0790ea8273f38625b309f900f51a8d05fc",
        "1cba92bea2e06d541cc5fac6b5336939b6e4ed4d4b382df5c4f03cdaa5406cb5"),
    "crash/pipelining-off": (
        "500a33647b3b4d0a50e100695ad1847a0d0a9543bd9d8451be88fb69baff8fd9",
        "8d87012d57178ef88f758a93d4852f17c80d64a2250c1c322609b3dd5d25c526"),
    "crash/pipelining-on": (
        "61025b50f8077903b867e6871be040216b8f7826224522bfdf4103702776bd3d",
        "0b006eb9d2156be446e06502cc5ac72155c6a04f7c82b31f81332e429da62dd5"),
    "paper-longctx/seed1": (
        "12dd65729ffe186c0ce32d66cca717a42a2f9b7e1be022e4a2978c844852e521",
        "3258c2220d4b5d765f648dcb3c41240b3733923043bc5715721e13e06c2df605"),
    "paper-longctx/seed2": (
        "8943948951477651e5405dd01f4785ae6799a802841a19a2762f27de8fecd8e8",
        "5c2d6524f993791838ee1bb9ad7bfa04bebc0cc9a960d68e63627fc601ac7969"),
    "sessions-tiered/seed1": (
        "b42c5180a3fee789ddfac40f838711f25fc8ebe651a314157da413e658a3f40b",
        "6c801409dc46e0aa922fbada0277c7112ebb72245c8b28c9bf949594040bb137"),
    "sessions-tiered/seed2": (
        "95dbc8614491425da281f56e898c17fee9fa96f214976190c329976be5607b22",
        "c1ba7474c2fe4c97ca54ed60bb66c93ce44b118d5d936a076c271233f542bedb"),
}


def _token_digest(artifact) -> str:
    h = hashlib.sha256()
    for method, result in artifact.results.items():
        h.update(method.encode())
        for req in result.terminal_requests():
            h.update(str(req.request_id).encode())
            h.update(req.token_times().tobytes())
    return h.hexdigest()


def _digests(fields: dict) -> tuple[str, str]:
    artifact = Runner().run(Scenario(**fields))
    text = artifact.to_json(indent=1)
    return (hashlib.sha256(text.encode()).hexdigest(),
            _token_digest(artifact))


@pytest.mark.skipif(not LEFT_TO_RIGHT_SUM,
                    reason="digests pinned where sum() adds left to right")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_span_output_is_pinned(name):
    assert _digests(SCENARIOS[name]) == GOLDEN[name]


@pytest.mark.parametrize("pipelining", (False, True))
def test_crash_scenario_hits_both_span_crash_branches(monkeypatch,
                                                     pipelining):
    """The crash scenarios pin both ``_decode_down`` span branches."""
    seen = {"mid_span": 0, "boundary_pending": 0}
    original = engine.Simulator._decode_down

    def counting(self, now, idx):
        decode = self._decode[idx]
        if decode.down_count == 0 and decode.iteration_scheduled:
            seen["boundary_pending" if decode.boundary_pending
                 else "mid_span"] += 1
        return original(self, now, idx)

    monkeypatch.setattr(engine.Simulator, "_decode_down", counting)
    Runner().run(Scenario(**dict(CRASH, pipelining=pipelining)))
    assert seen["mid_span"] > 0
    assert seen["boundary_pending"] > 0


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        json_digest, token_digest = _digests(SCENARIOS[name])
        print(f'    "{name}": (\n        "{json_digest}",\n'
              f'        "{token_digest}"),')
