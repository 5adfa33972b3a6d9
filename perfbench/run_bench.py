"""Benchmark harness of the HACK reproduction.

Runs the workloads of ``perfbench/workloads.py`` and reports the
metrics that ``BENCHMARK.json`` declares, with their units::

    python3 perfbench/run_bench.py                     # every workload
    python3 perfbench/run_bench.py --workload paper-longctx --seed 3
    python3 perfbench/run_bench.py --trace 1 --spans .bench_out/spans
    python3 perfbench/run_bench.py --smoke --json .bench_out/smoke.json
    python3 perfbench/compare_bench.py A.json B.json   # regression gate

Each workload runs in a fresh child process of its own, one at a time,
with BLAS/OpenMP threads pinned to 1.  The child sets the workload up,
runs one untimed warm-up unit, and then repeats the unit back to back
(a closed loop with one caller; the simulated traffic inside a unit is
open-loop) until ``--seconds`` have passed, at least three times.  A
metric is the median over repeats, reported with its quartiles.
``setup_s`` is the median, over five cold child starts, of the time
from spawning a child to the end of its ``import repro`` and set-up.

Every repeat's outputs are checked, and the checks count as operations:
``attempted`` is repeats plus checks, ``failed`` the exceptions and
failed checks among them.

``--trace 1`` reports the per-layer metrics instead: it alternates
untraced repeats with repeats traced by ``perfbench/tracer.py`` and
prints each layer's self time and the tracing overhead (traced over
untraced wall time).  ``--spans DIR`` writes the spans of the first
traced repeat of each workload to ``DIR/<workload>.json``.

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--json PATH`` writes every workload's metrics with their quartiles,
the input of ``compare_bench.py``.  Artifacts go to ``.bench_out/``
under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_STARTS = 5
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
#: Where each end-to-end metric's samples come from in a child's report.
E2E_SAMPLES = {"wall_s": "wall_s", "decode_tok_per_s": "token_rate",
               "peak_rss_mb": "peak_rss_mb"}
#: Per-layer metrics read from span totals instead of self times.
SPAN_FIELDS = {
    "sim.engine.simulate_s": ("sim.engine.simulate", "total_s"),
    "sim.engine.self_s": ("sim.engine.simulate", "self_s"),
    "core.kv_cache.hack.attention_self_s":
        ("core.kv_cache.hack.attention", "self_s"),
}
#: Largest share by which self times may miss a cell's wall time.
CELL_TOLERANCE = 0.01


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0],
                "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


# -- parent: one child per workload ------------------------------------------

def _child_cmd(*args: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *args]


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def time_setup(workload: str, seed: int, smoke: bool) -> float:
    """Seconds from spawning a cold child to the end of its set-up.

    The child prints ``perf_counter()`` when set-up is done; the clock is
    system-wide, so the difference excludes interpreter teardown and the
    parent's polling for the child's exit.
    """
    cmd = _child_cmd("--setup-only", "--workload", workload,
                     "--seed", str(seed), *(["--smoke"] if smoke else []))
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout.split()[-1]) - start


def run_child(workload: str, args) -> dict:
    """Measure one workload in a fresh child; return its raw report."""
    cmd = _child_cmd("--child", "--workload", workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     *(["--smoke"] if args.smoke else []),
                     *(["--spans", str(args.spans)] if args.spans else []))
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(raw: dict, setup: list[float], declared: list[dict],
              trace: bool) -> dict:
    """The record of one workload: correctness plus declared metrics."""
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if trace:
            stats = quartiles([raw["per_layer"][name]])
        elif name == "setup_s":
            stats = quartiles(setup)
        else:
            stats = quartiles(raw[E2E_SAMPLES[name]])
        metrics[name] = {"unit": metric["unit"], **stats}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "failures": raw["failures"],
            "metrics": metrics}


def validate(record: dict, declared: list[dict], trace: bool) -> list[str]:
    """Problems with a record against the metrics it must declare."""
    problems = []
    for metric in declared:
        name = metric["name"]
        got = record["metrics"].get(name)
        if got is None:
            problems.append(f"{name}: missing")
        elif not all(math.isfinite(got[k]) for k in ("value", "q1", "q3")):
            problems.append(f"{name}: not finite ({got['value']})")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{name}: unit {got['unit']!r}, declared "
                            f"{metric['unit']!r}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{name}: end-to-end metric is {got['value']}")
    return problems


def print_record(name: str, record: dict, raw: dict, trace: bool) -> None:
    status = "ok" if record["correct"] else "FAILED"
    print(f"== {name}: {status}, {record['attempted']} operations, "
          f"{record['failed']} failed")
    for failure in record["failures"]:
        print(f"   failed: {failure}")
    for metric, stats in record["metrics"].items():
        spread = (f"  [q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, "
                  f"n={stats['n']}]" if stats["n"] > 1 else "")
        print(f"   {metric:42s} {stats['value']:>14.6g} "
              f"{stats['unit']:8s}{spread}")
    if trace:
        print(f"   tracing overhead: {raw['overhead']:.3f}x untraced wall "
              f"time; {raw['cells']} cells, self times within "
              f"{raw['cell_error']:.2e} of cell wall time")


def orchestrate(args, spec: dict) -> int:
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    starts = 1 if args.smoke else SETUP_STARTS
    records = {}
    ok = True
    for name in names:
        setup = [] if args.trace else \
            [time_setup(name, args.seed, args.smoke) for _ in range(starts)]
        raw = run_child(name, args)
        record = summarize(raw, setup, declared, bool(args.trace))
        problems = validate(record, declared, bool(args.trace))
        if problems:
            print(f"{name}: output does not match BENCHMARK.json: "
                  + "; ".join(problems), file=sys.stderr)
            return 1
        print_record(name, record, raw, bool(args.trace))
        records[name] = record
        ok = ok and record["correct"]
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"seed": args.seed, "seconds": args.seconds,
                   "smoke": args.smoke, "trace": args.trace,
                   "workloads": records}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True,
                                   allow_nan=False) + "\n")
    if args.workload:
        record = records[args.workload]
        print(json.dumps({
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in record["metrics"].items()},
        }, allow_nan=False))
    return 0 if ok else 1


# -- child: one workload in this process -------------------------------------

def _import_workloads():
    """Import the workloads against this checkout's ``src/repro``."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from "
                         f"{ROOT / 'src'}")
    import workloads

    return workloads


class Ledger:
    """Counts operations (repeats and checks) and their failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, fn, *args):
        """One repeat: ``fn(*args)``, or ``None`` if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed repeat is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(names: list[str], workloads, workload, layer_runs: list[dict],
              traced: list, plain: list) -> dict[str, float]:
    """Every declared per-layer metric of one traced run."""
    timings = workload.timing_metrics(plain) if plain else {}
    out = {}
    for name in names:
        if name == "trace.overhead":
            value = (_median([u.wall_s for u in traced])
                     / _median([u.wall_s for u in plain]))
        elif name in workloads.COUNT_METRICS:
            value = traced[0].counts.get(name, 0) if traced else 0
        elif name in workloads.TIMING_METRICS:
            value = timings.get(name, 0.0)
        elif name.endswith("_calls"):
            layer = name[:-len("_calls")]
            value = _median([run.get(layer, {}).get("calls", 0)
                             for run in layer_runs])
        else:
            layer, field = SPAN_FIELDS.get(name, (name[:-len("_s")],
                                                  "self_s"))
            value = _median([run.get(layer, {}).get(field, 0.0)
                             for run in layer_runs])
        out[name] = float(value)
    return out


def child_main(args, spec: dict) -> int:
    workloads = _import_workloads()
    from tracer import NullTracer, Tracer, installed

    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    untraced = NullTracer()
    tracer = Tracer()
    state = workload.setup(args.seed, args.smoke)

    warm = []
    if not args.smoke:
        warm.append(ledger.run("warm-up", workload.unit, state, untraced,
                               out_dir))
    plain, traced, layer_runs, cells = [], [], [], []
    min_repeats = 1 if args.smoke else MIN_REPEATS
    deadline = perf_counter() + (0 if args.smoke else args.seconds)
    while True:
        gc.collect()
        plain.append(ledger.run(f"repeat {len(plain)}", workload.unit,
                                state, untraced, out_dir))
        if args.trace:
            gc.collect()
            tracer.reset()
            tracer.prefix = f"{workload.name}/{len(traced)}/"
            with installed(tracer), tracer.cell("unit"):
                unit = ledger.run(f"traced repeat {len(traced)}",
                                  workload.unit, state, tracer, out_dir)
            traced.append(unit)
            layer_runs.append(tracer.layers())
            if unit is not None:
                cells.append(cell_error(tracer, unit))
                if args.spans and len(cells) == 1:
                    _write_spans(Path(args.spans), workload.name, args.seed,
                                 tracer, cells[0])
        if len(plain) >= min_repeats and perf_counter() >= deadline:
            break

    units = [u for u in warm + plain + traced if u is not None]
    plain = [u for u in plain if u is not None]
    traced = [u for u in traced if u is not None]
    if not plain or (args.trace and not traced):
        print(f"{workload.name}: no repeat completed", file=sys.stderr)
        return 1
    for i, unit in enumerate(units):
        for label, ok in unit.checks.items():
            ledger.check(f"unit {i}: {label}", ok)
    ledger.check("digest identical across repeats",
                 len({u.digest for u in units}) == 1)
    checks = ledger.run("final checks", workload.final_checks, state,
                        args.seed, args.smoke)
    for label, ok in (checks or {}).items():
        ledger.check(label, ok)

    report = {"wall_s": [u.wall_s for u in plain],
              "token_rate": [u.tokens / u.token_time_s for u in plain],
              "peak_rss_mb":
                  [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]}
    if args.trace:
        calls = [{k: v["calls"] for k, v in run.items() if k != "python.gc"}
                 for run in layer_runs]
        ledger.check("span counts identical across traced repeats",
                     all(c == calls[0] for c in calls))
        ledger.check("unit counts identical across repeats",
                     all(u.counts == units[0].counts for u in units))
        _, worst, where = max(cells, key=lambda cell: cell[1])
        ledger.check(f"self times sum to cell wall time (worst: {where}, "
                     f"{worst:.2%})", worst <= CELL_TOLERANCE)
        report.update(
            overhead=(_median([u.wall_s for u in traced])
                      / _median([u.wall_s for u in plain])),
            cells=sum(cell[0] for cell in cells), cell_error=worst,
            per_layer=per_layer([m["name"] for m in spec["per_layer"]],
                                workloads, workload, layer_runs, traced,
                                plain))
    report.update(attempted=ledger.attempted, failed=len(ledger.failures),
                  failures=ledger.failures)
    print(json.dumps(report, allow_nan=False))
    return 0


def cell_error(tracer, unit) -> tuple[int, float, str]:
    """``(cells, worst relative error, worst cell)`` of traced self times
    against stopwatches outside the tracer: every span of the repeat
    against the repeat's wall time, and each timed cell's spans against
    that cell's wall time."""
    got = tracer.cell_self_times()
    errors = {tracer.prefix + "*": abs(sum(got.values()) - unit.wall_s)
              / unit.wall_s}
    for label, wall in unit.cells.items():
        label = tracer.prefix + label
        errors[label] = abs(got.get(label, 0.0) - wall) / wall
    worst = max(errors, key=errors.get)
    return len(errors), errors[worst], worst


def _write_spans(directory: Path, workload: str, seed: int, tracer,
                 check: tuple[int, float, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    n_cells, error, where = check
    payload = {"workload": workload, "seed": seed, "layers": tracer.layers(),
               "cell_check": {"cells": n_cells, "max_rel_error": error,
                              "worst_cell": where},
               **tracer.to_json()}
    (directory / f"{workload}.json").write_text(
        json.dumps(payload, allow_nan=False) + "\n")


def setup_main(args) -> int:
    workloads = _import_workloads()
    workloads.WORKLOADS[args.workload].setup(args.seed, args.smoke)
    print(repr(perf_counter()))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measuring time per workload (default "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    parser.add_argument("--spans", metavar="DIR",
                        help="with --trace 1, write spans to "
                             "DIR/<workload>.json")
    parser.add_argument("--json", metavar="PATH",
                        help="write the metrics with quartiles here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one repeat, for a quick check")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_main(args)
    if args.child:
        return child_main(args, spec)
    return orchestrate(args, spec)


if __name__ == "__main__":
    sys.exit(main())
