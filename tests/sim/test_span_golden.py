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
join's truncation and its boundary event.  Smoke-size cocktail
scenarios then cover each subsystem configured on its own: degrading
and shedding admission, selection without a store, a tiered store
under sessions, NIC brownout with transfer flaps, prefill crashes, and
the explicit ``static`` autoscaler with ``accept_all`` admission.

One scenario also runs in two child interpreters with different
``PYTHONHASHSEED`` values: its digests must not depend on the order in
which sets and string-keyed hashes iterate.

Regenerate a digest only for an intended behaviour change:
``PYTHONPATH=src python tests/sim/test_span_golden.py``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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

#: One subsystem configured at a time, on a saturated cocktail trace
#: (long prefills, so queues build, ``shed`` sheds and prefill crashes
#: catch work in flight).  SLO tiers come from ``sessions?tiers=…``.
SUBSYSTEM = dict(dataset="cocktail", methods=("baseline", "hack"),
                 n_requests=50, seed=1)
SUBSYSTEMS = {
    "degrade": dict(admission="degrade?tier=1,method=hack_int4"),
    "degrade/tiers": dict(admission="degrade?tier=1,method=hack_int4",
                          arrival="sessions?tiers=2"),
    "shed": dict(admission="shed?queue_max=8"),
    "selection-no-store": dict(selection="slo_tier?tier2=hack_int4"),
    "selection-no-store/tiers": dict(selection="slo_tier?tier2=hack_int4",
                                     arrival="sessions?tiers=3"),
    "kvstore-sessions": dict(kvstore="tiered",
                             arrival="sessions?turns=4,think_time=20"),
    "nic-flap": dict(faults="nic_degrade?factor=0.2,start=1.0,"
                            "duration=20.0+transfer_flap?p_fail=0.1"),
    "prefill-crash": dict(faults="replica_crash?mttf=3.0,mttr=1.0,"
                                 "role=prefill"),
    "static-accept-all": dict(autoscaler="static", admission="accept_all"),
}

SCENARIOS = {
    **{f"{name}/seed{seed}": dict(fields, seed=seed)
       for name, fields in WORKLOADS.items() for seed in (1, 2)},
    # Bursts at a tenth of full size still build batches of dozens.
    "burst-shortctx/n600": dict(WORKLOADS["burst-shortctx"], seed=1,
                                n_requests=600),
    "crash/pipelining-off": dict(CRASH, pipelining=False),
    "crash/pipelining-on": dict(CRASH, pipelining=True),
    **{f"subsystem/{name}": dict(SUBSYSTEM, **fields)
       for name, fields in SUBSYSTEMS.items()},
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
    "subsystem/degrade": (
        "62a5196347b7cc4b25a500c90f62bdeb135a9867b3f58dd41b5e2e0d3b2ab18f",
        "4fbbabe3c61daf24fe9d3d0d0d35c791248af499ce352817916687c367959d5d"),
    "subsystem/degrade/tiers": (
        "645cb807525fe06518ddb47b09b7d6fbf9935116220dc7cf5220f00bc19f634b",
        "3f83dc71d2c0e6b0fcdaaedbc5d1d15864752e0a8e091db20e81327fe9fc1032"),
    "subsystem/kvstore-sessions": (
        "6210522a7d400b49cf800d684cd36538a9f6b6febf43a09c3d673d53749dce6a",
        "7b91296b1d4c12d71a060f9f9853f1fcbe3bfe0cc4a202075dbca809ece710c3"),
    "subsystem/nic-flap": (
        "f918ee4c4e7e06b949c3eab68a21f4d2c95cd6cc2658b50d3606c7c202d1ced9",
        "52209cd3c3e1a6ef27b90423e0865844d5115476250e28d0cde3146495339de7"),
    "subsystem/prefill-crash": (
        "92a0ca965dfbfee499056d7522199737547b08019d6c9105d8052dfa654bd53e",
        "805469835103278d7fb5fca96316639cb3bac27c987536b3d3a2fd6a663d22de"),
    "subsystem/selection-no-store": (
        "50b3ea5f2be9a51e7b74870be29192c0c371b10e207e94c15f5191716172cba3",
        "a134e11e269e708aec352d80a4cb605838db326d88d7dc328bac97ba5939d213"),
    "subsystem/selection-no-store/tiers": (
        "ef84763483ddfb2b29f5fd03fbb782c4ded059ab6f6d70a46804182b27591225",
        "44d13cbc6b83c4c04ee8160b71ddd59f08464363f2b815dbe3e94e8865ec4cd5"),
    "subsystem/shed": (
        "d396b94040871ed70a2801b17a2bf0b78c7f521ab21a57ab15a3cfc2d5fefdb3",
        "b404c1f81f8b4de5b077212cc66e521fc15968b35534706abb124915fd7626e7"),
    "subsystem/static-accept-all": (
        "ebef643dd184faedaee74e17404ce0fcb3415dba66f0c2bc3f37bbe4754dd31d",
        "4fbbabe3c61daf24fe9d3d0d0d35c791248af499ce352817916687c367959d5d"),
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


def test_digests_do_not_depend_on_the_hash_seed():
    """The syntactic set-iteration lint (REPRO103) run for real: the
    richest scenario (store, selection, faults, autoscaler) gives the
    same digests under two string-hash seeds."""
    name = "sessions-tiered/seed1"
    code = ("from test_span_golden import SCENARIOS, _digests; "
            f"print(*_digests(SCENARIOS[{name!r}]))")
    src = str(Path(repro.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, here]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


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
