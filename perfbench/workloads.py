"""The benchmark's four workloads.

Each workload has a fixed unit of work that one repeat runs.  The three
simulator workloads run a scenario end to end through the public API
(``Runner.run``, then ``save`` → ``RunArtifact.load`` → ``compare``);
the kernel workload runs HACK's KV caches and the three compressors
with no simulator.  The sim workloads never call ``core``/``quant`` and
the kernel workload never calls ``sim``, so a gain in either half
predicts no change in the other.

Why these workloads:

* ``paper-longctx`` is the paper's headline Fig. 9 cell.  Long contexts
  and few requests, so the ``perfmodel`` span closed forms and transfer
  costing dominate.  Every subsystem gate is off.
* ``burst-shortctx`` sends short prompts in MMPP bursts at about 47
  rps, so per-token request bookkeeping and artifact summaries
  dominate.  Gates are off.
* ``sessions-tiered`` is the only workload that reads and writes the
  tiered KV store and runs the selection, recovery and elastic policies
  and the placement re-admission scans.  A gain on the gated paths that
  costs the gate-off paths, or the reverse, shows against the two above.
* ``kernels-decode`` is HACK's own mechanism: a prefill hand-off into
  the HACK and the dequantizing cache, decode steps on each, and the
  three compressors on one KV plane.

The seed is the only input: it becomes ``Scenario.seed`` and the kernel
RNG seeds, and the program sees only the generated inputs.

Each workload imports the ``repro`` modules it uses inside its methods,
so a cold start (``setup_s``) pays only for its own imports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["COUNT_METRICS", "TIMING_METRICS", "WORKLOADS", "Unit"]

#: Per-layer metrics a unit reports as exact counts (0 on workloads that
#: never exercise them); they must repeat exactly.
COUNT_METRICS = (
    "api.artifact.bytes", "kvstore.hit_rate", "kvstore.evictions",
    "sim.elastic.scaling_events", "sim.faults.n_retries",
    "core.ledger.hack.int_matmul_flops", "core.ledger.hack.approx_flops",
    "core.ledger.hack.quant_flops", "core.ledger.dequant.dequant_flops",
    "core.kv_cache.hack.kv_bytes", "core.kv_cache.dequant.kv_bytes",
    "quant.hack.ratio", "quant.kvquant.ratio", "quant.cachegen.ratio",
)
#: Per-layer metrics a workload's ``timing_metrics`` derives from its
#: units' own timings (untraced repeats, so tracing does not inflate
#: them; 0 on workloads that do not report them).
TIMING_METRICS = (
    "core.kv_cache.hack.step_ms_p50", "core.kv_cache.hack.step_ms_p95",
    "quant.compress_mb_per_s",
)

#: Relative tolerance of the span-vs-token differential check.
SPAN_TOKEN_RTOL = 1e-9
#: Relative tolerance of ``homomorphic_matmul`` against the dequantized
#: product.
HOMOMORPHIC_RTOL = 1e-9


@dataclass
class Unit:
    """What one repeat of a workload's unit measured and produced."""

    wall_s: float
    #: Decode tokens the repeat produced and the seconds they took:
    #: simulated tokens over the unit's wall time for the sim
    #: workloads, real HACK-cache decode steps over their own time for
    #: the kernel workload.
    tokens: int
    token_time_s: float
    #: Digest of every output; identical across repeats of one run.
    digest: str
    #: Deterministic per-unit counts, keyed by per-layer metric name.
    counts: dict[str, float] = field(default_factory=dict)
    #: Timing-derived per-layer values, keyed by metric name.
    timings: dict[str, float] = field(default_factory=dict)
    #: HACK-cache decode step latencies (kernel workload only).
    step_ms: list[float] = field(default_factory=list)
    #: Wall seconds of each cell (one method's simulation, one cache's
    #: decode steps), timed outside the tracer, keyed by cell label.
    cells: dict[str, float] = field(default_factory=dict)
    #: Named correctness checks of this repeat's outputs.
    checks: dict[str, bool] = field(default_factory=dict)


class SimWorkload:
    """A scenario run end to end, then saved, loaded and compared."""

    #: Requests in the untimed span-vs-token differential copy.
    CHECK_REQUESTS = 200

    def __init__(self, name: str, **fields) -> None:
        self.name = name
        self.fields = fields

    def _scenario(self, seed: int, smoke: bool, **changes):
        from repro.api import Scenario

        fields = dict(self.fields, seed=seed, **changes)
        if smoke:
            fields["n_requests"] = max(10, fields["n_requests"] // 50)
        return Scenario(**fields)

    def setup(self, seed: int, smoke: bool):
        """Resolve the scenario: the cold-start work before any run."""
        from repro.api.runner import resolve

        scenario = self._scenario(seed, smoke)
        return scenario, len(resolve(scenario).trace)

    def unit(self, state, tracer, out_dir: Path) -> Unit:
        from repro.api import RunArtifact, Runner

        scenario, n_trace = state
        path = out_dir / "artifact.json"
        start = perf_counter()
        with tracer.span("bench.unit"):
            artifact = Runner().run(scenario)
            artifact.save(path)
            loaded = RunArtifact.load(path)
            diff = artifact.compare(loaded)
        wall = perf_counter() - start

        data = path.read_bytes()
        checks = {"roundtrip_empty_diff": bool(diff["equal"])}
        tokens = 0
        for method, result in artifact.results.items():
            terminal = (len(result.requests) + len(result.rejected_requests)
                        + len(result.failed_requests))
            checks[f"{method}.terminal_equals_trace"] = terminal == n_trace
            # Prefill produces each request's first token; decode the rest.
            expected = sum(r.trace.output_len - 1 for r in result.requests)
            generated = result.generated_tokens()
            checks[f"{method}.tokens_equal_output"] = generated == expected
            tokens += generated
        # The runner times each method's ``simulate`` call itself.
        cells = {m: perf["wall_s"] for m, perf in artifact.perf.items()}
        return Unit(wall_s=wall, tokens=tokens, token_time_s=wall,
                    digest=hashlib.sha256(data).hexdigest(),
                    counts=_sim_counts(artifact, len(data)), cells=cells,
                    checks=checks)

    @staticmethod
    def timing_metrics(units: list[Unit]) -> dict[str, float]:
        return {}

    def final_checks(self, state, seed: int, smoke: bool) -> dict[str, bool]:
        """Span and token stepping agree on a small untimed copy."""
        from repro.api import Runner, compare_artifacts

        n = 20 if smoke else self.CHECK_REQUESTS
        runs = {mode: Runner().run(self._scenario(seed, smoke, n_requests=n,
                                                  step_mode=mode))
                for mode in ("span", "token")}
        diff = compare_artifacts(runs["token"], runs["span"],
                                 rtol=SPAN_TOKEN_RTOL)
        return {"span_equals_token": not diff["methods"]
                and not diff["trace"]}


def _sim_counts(artifact, n_bytes: int) -> dict[str, float]:
    lookups = hits = evictions = scaling = retries = 0
    for run in artifact.methods.values():
        summary = run.summary
        if "kvstore" in summary:
            store = summary["kvstore"]
            lookups += store["lookups"]
            hits += store["hits"]
            evictions += sum(t["evictions"] for t in store["tiers"].values())
        if "elastic" in summary:
            scaling += summary["elastic"]["scaling_events"]
        if "faults" in summary:
            retries += summary["faults"]["n_retries"]
    return {"api.artifact.bytes": n_bytes,
            "kvstore.hit_rate": hits / lookups if lookups else 0.0,
            "kvstore.evictions": evictions,
            "sim.elastic.scaling_events": scaling,
            "sim.faults.n_retries": retries}


class KernelWorkload:
    """HACK's decode and compression kernels, with no simulator.

    A ``CONTEXT``-token prefill hand-off (``append_bulk``) into a
    ``HackKVCache`` and a ``DequantizingKVCache``; ``STEPS`` decode steps
    on each (``append``, which writes, then ``attention``, which reads);
    then ``compress``/``decompress`` of one ``PLANE_TOKENS`` × ``HEAD_DIM``
    K plane through the HACK, KVQuant and CacheGen compressors.
    """

    name = "kernels-decode"
    HEAD_DIM = 128
    PARTITION = 64
    KV_BITS = 2
    QP_BITS = 8
    CONTEXT = 2048
    STEPS = 128
    PLANE_TOKENS = 512

    def _sizes(self, smoke: bool) -> tuple[int, int, int]:
        if smoke:
            # Steps stay above a millisecond, so the few microseconds per
            # step the trace wrappers spend outside their spans stay well
            # below 1% of a decode cell.
            return 1024, 8, 64
        return self.CONTEXT, self.STEPS, self.PLANE_TOKENS

    def setup(self, seed: int, smoke: bool):
        """Draw the Q/K/V streams and the compressor plane."""
        from repro.accuracy.kv_distributions import (
            K_DISTRIBUTION,
            synthetic_attention_inputs,
            synthetic_plane,
        )

        context, steps, plane_tokens = self._sizes(smoke)
        rng = np.random.default_rng(seed)
        q, k, v = synthetic_attention_inputs(context + steps, self.HEAD_DIM,
                                             rng, l_q=steps)
        plane = synthetic_plane(plane_tokens, self.HEAD_DIM, K_DISTRIBUTION,
                                rng)
        return {"seed": seed, "context": context, "steps": steps,
                "q": q, "k": k, "v": v, "plane": plane}

    def _caches(self, seed: int):
        from repro.core.kv_cache import DequantizingKVCache, HackKVCache

        hack = HackKVCache(self.HEAD_DIM, partition_size=self.PARTITION,
                           kv_bits=self.KV_BITS, q_bits=self.QP_BITS,
                           p_bits=self.QP_BITS,
                           rng=np.random.default_rng(seed))
        dequant = DequantizingKVCache(self.HEAD_DIM,
                                      partition_size=self.PARTITION,
                                      kv_bits=self.KV_BITS,
                                      rng=np.random.default_rng(seed))
        return hack, dequant

    @staticmethod
    def _compressors():
        from repro.quant import (CacheGenCompressor, HackCompressor,
                                 KVQuantCompressor)

        return (HackCompressor(partition_size=64, bits=2),
                KVQuantCompressor(bits=2), CacheGenCompressor())

    def unit(self, state, tracer, out_dir: Path) -> Unit:
        q, k, v, plane = state["q"], state["k"], state["v"], state["plane"]
        context, steps = state["context"], state["steps"]
        cells = {}
        step_s = []
        outputs = []
        compressed = []
        start = perf_counter()
        with tracer.span("bench.unit"):
            hack, dequant = self._caches(state["seed"])
            hack.append_bulk(k[:context], v[:context])
            dequant.append_bulk(k[:context], v[:context])
            for label, cache in (("hack", hack), ("dequant", dequant)):
                out = np.empty((steps, self.HEAD_DIM))
                with tracer.cell(f"{label}-decode"):
                    t_phase = perf_counter()
                    for i in range(steps):
                        t0 = perf_counter()
                        cache.append(k[context + i], v[context + i])
                        out[i] = cache.attention(q[i])
                        if cache is hack:
                            step_s.append(perf_counter() - t0)
                    cells[f"{label}-decode"] = perf_counter() - t_phase
                outputs.append(out)
            t0 = perf_counter()
            for compressor in self._compressors():
                packed = compressor.compress(plane)
                compressed.append((compressor.name, packed,
                                   compressor.decompress(packed)))
            compress_s = perf_counter() - t0
        wall = perf_counter() - start

        digest = hashlib.sha256()
        for out in outputs:
            digest.update(out.tobytes())
        counts = {
            "core.ledger.hack.int_matmul_flops": hack.ledger.int_matmul_flops,
            "core.ledger.hack.approx_flops": hack.ledger.approx_flops,
            "core.ledger.hack.quant_flops": hack.ledger.quant_flops,
            "core.ledger.dequant.dequant_flops":
                dequant.ledger.dequant_flops,
            "core.kv_cache.hack.kv_bytes": hack.kv_nbytes(),
            "core.kv_cache.dequant.kv_bytes": dequant.kv_nbytes(),
        }
        fp16_bytes = 0
        for name, packed, restored in compressed:
            digest.update(restored.tobytes())
            digest.update(str(packed.nbytes).encode())
            counts[f"quant.{name}.ratio"] = packed.ratio()
            fp16_bytes += packed.fp16_nbytes()
        return Unit(
            wall_s=wall, tokens=steps, token_time_s=sum(step_s),
            digest=digest.hexdigest(), counts=counts,
            timings={"quant.compress_mb_per_s":
                     fp16_bytes / 1e6 / compress_s},
            step_ms=[s * 1e3 for s in step_s], cells=cells,
            checks={"hack_no_dequant": hack.ledger.dequant_flops == 0})

    @staticmethod
    def timing_metrics(units: list[Unit]) -> dict[str, float]:
        """Step-latency percentiles over every repeat's steps pooled,
        and the median compressor throughput."""
        from repro.sim.request import nearest_rank

        steps = sorted(ms for unit in units for ms in unit.step_ms)
        return {
            "core.kv_cache.hack.step_ms_p50": nearest_rank(steps, 50),
            "core.kv_cache.hack.step_ms_p95": nearest_rank(steps, 95),
            "quant.compress_mb_per_s": float(np.median(
                [u.timings["quant.compress_mb_per_s"] for u in units])),
        }

    def final_checks(self, state, seed: int, smoke: bool) -> dict[str, bool]:
        """Eq. 4 is exact, and the entropy coder round-trips exactly."""
        from repro.core import dequantize, homomorphic_matmul, quantize
        from repro.quant import CacheGenCompressor, entropy

        rng = np.random.default_rng(seed)
        context = state["context"]
        qa = quantize(state["q"], self.QP_BITS, axis=1,
                      partition_size=self.PARTITION, rng=rng)
        qb = quantize(state["k"][:context].T, self.KV_BITS, axis=0,
                      partition_size=self.PARTITION, rng=rng)
        product = homomorphic_matmul(qa, qb)
        reference = dequantize(qa) @ dequantize(qb)
        error = np.abs(product - reference).max()
        exact = bool(error <= HOMOMORPHIC_RTOL * np.abs(reference).max())

        coder = CacheGenCompressor()
        payload = coder.compress(state["plane"]).payload
        alphabet = 1 << coder.delta_bits
        codes = entropy.decode(payload["bitstream"],
                               payload["n_delta_values"], alphabet)
        again = entropy.encode(codes, alphabet)
        roundtrip = (again == payload["bitstream"] and np.array_equal(
            entropy.decode(again, codes.size, alphabet), codes))
        return {"homomorphic_matmul_exact": exact,
                "entropy_roundtrip": bool(roundtrip)}


WORKLOADS = {w.name: w for w in (
    SimWorkload("paper-longctx", model="L", prefill_gpu="A10G",
                dataset="cocktail",
                methods=("baseline", "hack", "cachegen", "kvquant"),
                n_requests=1500),
    SimWorkload("burst-shortctx", model="L", prefill_gpu="A10G",
                dataset="humaneval",
                arrival="mmpp?burst=4,duty=0.1,dwell=20",
                methods=("baseline", "hack"), n_requests=3000),
    SimWorkload("sessions-tiered", model="L", prefill_gpu="A10G",
                dataset="cocktail", arrival="sessions?turns=4,think_time=20",
                kvstore="tiered", selection="congestion",
                faults="transfer_flap?p_fail=0.02", recovery="retry",
                autoscaler="reactive", n_prefill_replicas=4,
                load_factor=0.8, methods=("baseline", "hack"),
                n_requests=2000),
    KernelWorkload(),
)}
