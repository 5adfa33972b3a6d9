"""Command-line entry point: run scenarios, sweeps and paper artifacts.

Subcommands::

    python -m repro.cli run --model L --dataset cocktail \
        --methods baseline,hack --json --out out/
    python -m repro.cli run fig9 --scale 0.5       # legacy artifact names
    python -m repro.cli fig9 --scale 0.5           # …also as top-level alias
    python -m repro.cli sweep --axis dataset=imdb,cocktail \
        --axis prefill_gpu=A10G,V100 --workers 4 --out out/
    python -m repro.cli run --methods baseline,hack?pi=128,bits=4
    python -m repro.cli sweep --methods hack \
        --axis method.partition_size=32,64,128,256 --out out/
    python -m repro.cli compare out-serial/ out-parallel/
    python -m repro.cli export out/some-artifact.json --format md
    python -m repro.cli list
    python -m repro.cli lint --json

``run``/``sweep`` build declarative :class:`repro.api.Scenario` /
:class:`repro.api.Sweep` objects and execute them on a
:class:`repro.api.Runner` (``--workers N`` fans out over processes);
``--json``/``--out`` emit schema-versioned
:class:`repro.api.RunArtifact` JSON that ``compare`` and ``export``
consume.  The historical figure/table names (``fig9``, ``table5``, …)
remain available as aliases of ``run`` on the predefined experiment
grids and render exactly the same tables as before.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .perfmodel.calibration import Calibration

from .analysis.tables import Table, format_value
from .api import Runner, RunArtifact, Scenario, Sweep, compare_artifacts
from .experiments import (
    fig1_motivation,
    fig2_4_quant_overhead,
    fig9_12_jct,
    fig13_ablation,
    fig14_scalability,
    faults as faults_experiment,
    kvstore as kvstore_experiment,
    scale as scale_experiment,
    scheduling,
    sec3_fp_formats,
    slo_goodput,
    table5_memory,
    table6_accuracy,
    table8_sensitivity,
)
from .api.fields import FIELDS_BY_NAME, SPEC_FIELDS
from .lint.cli import add_lint_arguments, run_from_args as \
    run_lint_from_args
from .methods import METHODS
from .model.config import MODEL_LETTERS as MODEL_REGISTRY
from .spec import split_list
from .workload.datasets import DATASETS as DATASET_REGISTRY

__all__ = ["main", "EXPERIMENTS", "build_parser"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One predefined paper artifact runnable via ``run <name>``."""

    description: str
    #: ``(scale, runner) -> renderable``; ``scale`` ignored when
    #: ``supports_scale`` is false.
    build: callable
    #: Simulation-backed artifacts scale their trace; accuracy-harness
    #: artifacts (table6/table7) have no trace and reject ``--scale``.
    supports_scale: bool = True


#: name → predefined experiment (the paper's tables and figures).
EXPERIMENTS: dict[str, ExperimentSpec] = {
    "fig1": ExperimentSpec(
        "motivation: baseline bottleneck ratios",
        lambda s, r: fig1_motivation.run(scale=s, runner=r)),
    "fig2-4": ExperimentSpec(
        "CacheGen/KVQuant overhead ratios",
        lambda s, r: fig2_4_quant_overhead.run(scale=s, runner=r)),
    "sec3": ExperimentSpec(
        "FP4/6/8 low-precision study",
        lambda s, r: sec3_fp_formats.run(scale=s, runner=r)),
    "fig9": ExperimentSpec(
        "average JCT by dataset (+ fig10 decomposition)",
        lambda s, r: fig9_12_jct.run_fig9_fig10(scale=s, runner=r)),
    "fig11": ExperimentSpec(
        "average JCT by model",
        lambda s, r: fig9_12_jct.run_fig11(scale=s, runner=r)),
    "fig12": ExperimentSpec(
        "average JCT by prefill instance",
        lambda s, r: fig9_12_jct.run_fig12(scale=s, runner=r)),
    "table5": ExperimentSpec(
        "peak decode memory usage (+ §7.4 overheads)",
        lambda s, r: table5_memory.run(scale=s, runner=r)),
    "table6": ExperimentSpec(
        "accuracy across methods/models/datasets",
        lambda s, r: table6_accuracy.run(), supports_scale=False),
    "fig13": ExperimentSpec(
        "SE/RQE ablation JCT",
        lambda s, r: fig13_ablation.run_fig13(scale=s, runner=r)),
    "table7": ExperimentSpec(
        "HACK/RQE accuracy drop",
        lambda s, r: fig13_ablation.run_table7(), supports_scale=False),
    "table8": ExperimentSpec(
        "partition-size sensitivity",
        lambda s, r: table8_sensitivity.run(scale=s, runner=r)),
    "fig14": ExperimentSpec(
        "scalability vs prefill:decode ratio",
        lambda s, r: fig14_scalability.run(scale=s, runner=r)),
    "slo": ExperimentSpec(
        "SLO goodput under bursty/diurnal arrival processes",
        lambda s, r: slo_goodput.run(scale=s, runner=r)),
    "sched": ExperimentSpec(
        "scheduling policies × arrivals on a mixed A10G+T4 fleet",
        lambda s, r: scheduling.run(scale=s, runner=r)),
    "kvstore": ExperimentSpec(
        "tiered KV store × compression selection on session workloads",
        lambda s, r: kvstore_experiment.run(scale=s, runner=r)),
    "faults": ExperimentSpec(
        "fault injection × recovery policies under bursty traffic",
        lambda s, r: faults_experiment.run(scale=s, runner=r)),
    "scale": ExperimentSpec(
        "autoscaler × admission over a diurnal day "
        "(goodput per GPU-hour)",
        lambda s, r: scale_experiment.run(scale=s, runner=r)),
}

#: Dataset axis used by the default ``sweep`` grid (Fig. 9 style).
_ALL_DATASETS = ("imdb", "arxiv", "cocktail", "humaneval")


def _default_sweep_axes(base: Scenario) -> tuple:
    """Default grid when no ``--axis`` is given: the base scenario's
    methods as a single-method axis, crossed with all datasets — unless
    the user pinned --dataset, which then stays fixed.  Base-scenario
    flags are never silently overridden by a defaulted axis."""
    axes = []
    if base.dataset == _SCENARIO_FLAG_DEFAULTS["dataset"]:
        axes.append(("dataset", _ALL_DATASETS))
    axes.append(("methods", tuple((m,) for m in base.methods)))
    return tuple(axes)


# -- scenario construction from flags ----------------------------------------

def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scenario fields")
    group.add_argument("--model", default="L",
                       help="model letter or registry name (default L)")
    group.add_argument("--methods", default="baseline,hack",
                       help="comma-separated methods: registry names "
                            "and/or specs like hack?pi=128,bits=4 "
                            "(see `list` for families and parameters)")
    group.add_argument("--dataset", default="cocktail")
    group.add_argument("--prefill-gpu", default="A10G",
                       help="prefill GPU, or a heterogeneous fleet like "
                            "A10G+T4 or A10G:2+T4:4 (per-fleet replica "
                            "counts)")
    group.add_argument("--decode-gpu", default="A100")
    group.add_argument("--rps", type=float, default=None,
                       help="arrival rate; default derives from baseline "
                            "capacity at --load-factor")
    group.add_argument("--load-factor", type=float, default=None)
    group.add_argument("--n-requests", type=int, default=None)
    group.add_argument("--seed", type=int, default=None)
    group.add_argument("--pipelining", action="store_true")
    group.add_argument("--n-prefill-replicas", type=int, default=None)
    group.add_argument("--n-decode-replicas", type=int, default=None)
    group.add_argument("--activation-overhead", type=float, default=None)
    group.add_argument("--step-mode", choices=("span", "token"),
                       default=None,
                       help="decode stepping: span (fast-forward, "
                            "default) or token (legacy differential "
                            "path)")
    group.add_argument("--arrival", default=None,
                       metavar="PROCESS",
                       help="arrival process: poisson (default), "
                            "constant, or a spec like "
                            "mmpp?burst=4,duty=0.1,dwell=20 "
                            "(see `list` for families and parameters)")
    group.add_argument("--scheduler", default=None,
                       metavar="POLICIES",
                       help="dispatch/placement policy pair: a policy "
                            "name (round_robin, best_fit, …), a pair "
                            "like nic_aware+no_swap, or with parameters "
                            "random?seed=7 (see `list`; default is the "
                            "paper's splitwise+shortest_queue)")
    group.add_argument("--kvstore", default=None,
                       metavar="STORE",
                       help="tiered KV store for prefix caching: a spec "
                            "like tiered?dram_gb=8.0+lfu or a bare "
                            "eviction name (lru, lfu, ttl?seconds=120) "
                            "(see `list`; default is no store)")
    group.add_argument("--selection", default=None,
                       metavar="POLICY",
                       help="per-request compression-selection policy: "
                            "static, slo_tier?tier2=hack_int4, or "
                            "congestion?hi=0.75,lo=0.5 (see `list`; "
                            "default keeps one method per cluster)")
    group.add_argument("--faults", default=None,
                       metavar="PLAN",
                       help="fault-injection plan: a family spec like "
                            "replica_crash?mttf=600,mttr=30 or a '+'-"
                            "joined composition replica_crash+"
                            "nic_degrade?factor=0.5 (see `list`; default "
                            "is no faults)")
    group.add_argument("--recovery", default=None,
                       metavar="POLICY",
                       help="recovery policy for faulted requests: "
                            "retry?max=3,base_s=1.0, migrate, or none "
                            "(see `list`; default retry — only active "
                            "when --faults is set)")
    group.add_argument("--autoscaler", default=None,
                       metavar="POLICY",
                       help="autoscaler policy: static, "
                            "reactive?queue_hi=8,queue_lo=1, "
                            "slo?target=0.9, or "
                            "schedule?plan=0:1.0|450:0.5 (see `list`; "
                            "default keeps the fixed fleet)")
    group.add_argument("--admission", default=None,
                       metavar="POLICY",
                       help="admission policy: accept_all, "
                            "shed?queue_max=64, or "
                            "degrade?tier=1,method=hack_int4 (see "
                            "`list`; default accepts every arrival)")
    group.add_argument("--calib", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="calibration override (repeatable)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit the artifact JSON instead of tables")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="save schema-versioned artifact JSON here")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes (default 1)")


def _scenario_from_args(args, scale: float) -> Scenario:
    calibration = None
    if args.calib:
        valid = {f.name for f in dataclasses.fields(Calibration)}
        pairs = []
        for item in args.calib:
            key, sep, value = item.partition("=")
            if not sep:
                raise SystemExit(f"--calib expects KEY=VALUE, got {item!r}")
            if key not in valid:
                raise SystemExit(
                    f"unknown calibration constant {key!r}; choose from "
                    f"{', '.join(sorted(valid))}")
            pairs.append((key, float(value)))
        calibration = tuple(pairs)
    return Scenario(
        model=args.model,
        dataset=args.dataset,
        prefill_gpu=args.prefill_gpu,
        decode_gpu=args.decode_gpu,
        rps=args.rps,
        load_factor=args.load_factor,
        n_requests=args.n_requests,
        seed=args.seed,
        scale=scale,
        pipelining=args.pipelining,
        n_prefill_replicas=args.n_prefill_replicas,
        n_decode_replicas=args.n_decode_replicas,
        activation_overhead=args.activation_overhead,
        step_mode=args.step_mode,
        calibration=calibration,
        **{f.name: getattr(args, f.name) for f in SPEC_FIELDS},
    )


def _parse_axis(spec: str) -> tuple[str, tuple]:
    """``field=v1,v2`` → (field, values); '+' joins method sets."""
    field, sep, raw = spec.partition("=")
    if not sep or not raw:
        raise SystemExit(f"--axis expects FIELD=V1,V2,…  got {spec!r}")
    spec_field = FIELDS_BY_NAME.get(field)
    if spec_field is None:
        return field, tuple(_coerce(token) for token in raw.split(","))
    # split_list keeps spec parameters attached, so a value like
    # "poisson,mmpp?burst=4,duty=0.1" is two axis values, not three.
    values = split_list(raw)
    if field == "methods":
        # '+' joins a method set: "baseline+hack?pi=128,bits=4".
        return field, tuple(tuple(v.split("+")) for v in values)
    return field, tuple(None if spec_field.none_unsets and v == "none"
                        else v for v in values)


def _coerce(token: str):
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    if token in ("true", "false"):
        return token == "true"
    return token


# -- output helpers -----------------------------------------------------------

def _emit_artifacts(artifacts: list[RunArtifact], args,
                    as_list: bool = False) -> None:
    """``as_list`` fixes the --json shape per command (sweep always
    emits an array, run always a single object) so consumers never see
    the shape flip with the grid size."""
    if args.out:
        if str(args.out).endswith(".json") and len(artifacts) > 1:
            raise SystemExit(
                f"--out {args.out} is a single file but the run produced "
                f"{len(artifacts)} artifacts; pass a directory instead")
        paths = []
        for artifact in artifacts:
            path = artifact.save(args.out)
            paths.append(str(path))
            print(f"wrote {path}", file=sys.stderr)
        if args.json:
            print(json.dumps(paths, indent=1))
        return
    if args.json:
        payload = [a.to_dict() for a in artifacts]
        print(json.dumps(payload if as_list else payload[0],
                         indent=1, sort_keys=True))
        return
    for artifact in artifacts:
        print(artifact.summary_table().render())
        print()


def _resolve_artifact_paths(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("*.json"))
            if not found:
                raise SystemExit(f"no .json artifacts under {path}")
            out.extend(found)
        elif path.exists():
            out.append(path)
        else:
            raise SystemExit(f"no such artifact: {path}")
    return out


# -- subcommand implementations ----------------------------------------------

def _cmd_run(args) -> int:
    if args.experiment:
        return _run_predefined(args)
    scale = 1.0 if args.scale is None else args.scale
    scenario = _scenario_from_args(args, scale)
    artifact = Runner(workers=args.workers).run(scenario)
    _emit_artifacts([artifact], args)
    return 0


def _scenario_flag_defaults() -> dict:
    """The scenario-flag defaults, derived from the parser itself so a
    future flag can never be silently ignored by a predefined run."""
    probe = argparse.ArgumentParser()
    _add_scenario_flags(probe)
    return vars(probe.parse_args([]))


#: Used to detect flags that a predefined experiment would otherwise
#: silently ignore (it runs its own fixed grid).
_SCENARIO_FLAG_DEFAULTS = _scenario_flag_defaults()


def _run_predefined(args) -> int:
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    if args.json or args.out:
        raise SystemExit(
            "--json/--out apply to scenario runs; predefined experiments "
            f"({', '.join(names)}) render tables — use plain "
            "`run <name>` or build the cell as a scenario instead")
    ignored = [flag for flag, default in _SCENARIO_FLAG_DEFAULTS.items()
               if getattr(args, flag) != default]
    if ignored:
        flags = ", ".join("--" + f.replace("_", "-") for f in ignored)
        raise SystemExit(
            f"{flags} do(es) not apply to predefined experiment "
            f"'{args.experiment}' — it runs its own fixed grid; drop the "
            "experiment name to run a custom scenario")
    runner = Runner(workers=args.workers)
    for name in names:
        spec = EXPERIMENTS[name]
        if args.scale is not None and not spec.supports_scale \
                and args.experiment != "all":
            raise SystemExit(
                f"{name} has no simulation trace to scale (it measures "
                "accuracy on the numpy harness); drop --scale")
        scale = 1.0 if args.scale is None else args.scale
        print(f"== {name}: {spec.description} ==")
        start = time.perf_counter()
        result = spec.build(scale, runner)
        print(result.render())
        print(f"[{name} took {time.perf_counter() - start:.1f}s]\n")
    return 0


def _cmd_sweep(args) -> int:
    scale = 1.0 if args.scale is None else args.scale
    base = _scenario_from_args(args, scale)
    axes = tuple(_parse_axis(spec) for spec in args.axis) \
        or _default_sweep_axes(base)
    sweep = Sweep(base=base, axes=axes)
    print(f"sweep: {len(sweep)} scenarios over axes "
          f"{', '.join(sweep.axis_names())} "
          f"({args.workers} worker{'s' if args.workers != 1 else ''})",
          file=sys.stderr)
    artifacts = Runner(workers=args.workers).run_sweep(sweep)
    if args.out or args.json:
        _emit_artifacts(artifacts, args, as_list=True)
        return 0
    table = Table("Sweep results",
                  [*sweep.axis_names(), "method", "avg_jct_s", "p50_jct_s",
                   "p99_jct_s", "peak_mem", "swaps"])
    # Artifacts come back in expansion order (row-major over the axes),
    # so the swept values — including method.<param> axes, which are
    # not Scenario fields — pair up structurally with the grid.
    combos = itertools.product(*(values for _, values in sweep.axes)) \
        if sweep.axes else iter([()])
    for artifact, combo in zip(artifacts, combos):
        axis_cells = [_axis_cell(value) for value in combo]
        for method, run in artifact.methods.items():
            s = run.summary
            table.add_row(*axis_cells, method, s["avg_jct_s"],
                          s["p50_jct_s"], s["p99_jct_s"],
                          s["peak_memory_fraction"], s["n_swapped"])
    print(table.render())
    return 0


def _axis_cell(value) -> str:
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return str(value)


def _cmd_compare(args) -> int:
    paths_a = _resolve_artifact_paths([args.a])
    paths_b = _resolve_artifact_paths([args.b])
    if len(paths_a) != len(paths_b):
        print(f"artifact count differs: {len(paths_a)} vs {len(paths_b)}")
        return 1
    all_equal = True
    for path_a, path_b in zip(paths_a, paths_b):
        diff = compare_artifacts(RunArtifact.load(path_a),
                                 RunArtifact.load(path_b), rtol=args.rtol)
        label = f"{path_a.name} vs {path_b.name}"
        if diff["equal"]:
            print(f"{label}: identical (rtol={args.rtol})")
            continue
        all_equal = False
        print(f"{label}: DIFFERS")
        if not diff["scenario_equal"]:
            print("  scenarios differ")
        for method, metrics in diff["methods"].items():
            for metric, delta in metrics.items():
                if metric == "missing_from":
                    print(f"  {method}: missing from side {delta}")
                else:
                    print(f"  {method}.{metric}: "
                          f"{format_value(delta['a'])} vs "
                          f"{format_value(delta['b'])} "
                          f"(rel {delta['rel_diff']:.2e})")
    return 0 if all_equal else 1


def _cmd_export(args) -> int:
    for path in _resolve_artifact_paths(args.artifacts):
        artifact = RunArtifact.load(path)
        table = artifact.summary_table(title=f"{path.name}: "
                                       f"{artifact.scenario.describe()}")
        if args.format == "md":
            print(table.to_markdown())
        elif args.format == "csv":
            print(",".join(table.headers))
            for row in table.rows:
                print(",".join(format_value(c) for c in row))
        else:
            print(table.render())
        print()
    return 0


def _cmd_list(args) -> int:
    registries = [registry for spec_field in SPEC_FIELDS
                  for registry in spec_field.registries]
    catalog = {
        "experiments": {n: s.description for n, s in EXPERIMENTS.items()},
        "models": sorted(MODEL_REGISTRY),
        "datasets": sorted(DATASET_REGISTRY),
        "methods": sorted(METHODS),
        **{registry.key: {
            name: {"description": family.description,
                   "signature": family.signature(),
                   "params": {p: pd.default
                              for p, pd in family.params.items()}}
            for name, family in registry.catalog().items()}
           for registry in registries},
        "prefill_gpus": list(fig1_motivation.GPUS),
    }
    if args.json:
        print(json.dumps(catalog, indent=1))
        return 0
    print("predefined experiments (run <name>):")
    for name, spec in EXPERIMENTS.items():
        suffix = "" if spec.supports_scale else "  [no --scale]"
        print(f"  {name:8s} {spec.description}{suffix}")
    for key in ("models", "datasets", "methods", "prefill_gpus"):
        print(f"{key}: {', '.join(catalog[key])}")
    for spec_field in SPEC_FIELDS:
        print(f"{spec_field.heading}:")
        for registry in spec_field.registries:
            if len(spec_field.registries) > 1:
                print(f" {registry.role}:")
            for family in registry.catalog().values():
                print(f"  {family.signature():42s} {family.description}")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hack-repro",
        description="Run HACK-repro scenarios, sweeps and paper artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario or a predefined "
                         "paper artifact")
    run.add_argument("experiment", nargs="?", default=None,
                     choices=[*EXPERIMENTS, "all"],
                     help="optional predefined artifact name; omit to run "
                          "the scenario described by the flags")
    run.add_argument("--scale", type=float, default=None,
                     help="trace-size multiplier (smaller = faster)")
    _add_scenario_flags(run)
    _add_output_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a cartesian scenario grid")
    sweep.add_argument("--axis", action="append", default=[],
                       metavar="FIELD=V1,V2,…",
                       help="sweep axis (repeatable); methods values may "
                            "join sets with '+'; method.<param> sweeps a "
                            "method-spec parameter, e.g. "
                            "method.partition_size=32,64,128,256; "
                            "kvstore.<param> sweeps a KV-store parameter, "
                            "e.g. kvstore.dram_gb=4,16,64")
    sweep.add_argument("--scale", type=float, default=None)
    _add_scenario_flags(sweep)
    _add_output_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    compare = sub.add_parser("compare", help="diff two artifacts or "
                             "artifact directories")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.add_argument("--rtol", type=float, default=1e-9)
    compare.set_defaults(func=_cmd_compare)

    export = sub.add_parser("export", help="render saved artifacts")
    export.add_argument("artifacts", nargs="+")
    export.add_argument("--format", choices=("text", "md", "csv"),
                        default="text")
    export.set_defaults(func=_cmd_export)

    lst = sub.add_parser("list", help="list experiments, models, datasets, "
                         "methods and GPUs")
    lst.add_argument("--json", action="store_true")
    lst.set_defaults(func=_cmd_list)

    lint = sub.add_parser("lint", help="run the repo invariant checker "
                          "(determinism, registry hygiene, schema "
                          "discipline)")
    add_lint_arguments(lint)
    lint.set_defaults(func=run_lint_from_args)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy aliases: `fig9 --scale 0.5` and `all` are `run` spellings.
    if argv and argv[0] in EXPERIMENTS or argv[:1] == ["all"]:
        argv = ["run", *argv]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        # Registry lookups and scenario validation raise with precise
        # messages; surface them as CLI errors, not tracebacks.  A bare
        # KeyError payload (a lone key, e.g. from a malformed artifact)
        # carries no context, so name the exception class alongside it.
        message = exc.args[0] if exc.args else str(exc)
        if isinstance(exc, KeyError) and " " not in str(message):
            message = f"missing or unknown key {message!r}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
