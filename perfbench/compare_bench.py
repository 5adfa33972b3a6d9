"""Compare two benchmark result files and gate on regressions.

    python3 perfbench/compare_bench.py A.json B.json

``A.json`` and ``B.json`` are written by ``run_bench.py --json``; A is
the baseline.  For each workload and end-to-end metric present in both,
prints both medians with their quartiles and a verdict, using the
metric's direction and bound from ``BENCHMARK.json``:

* ``unresolved`` — either side's spread (q3 − q1 over the median)
  exceeds the bound, so the runs cannot tell a change from noise;
* ``improved`` / ``regressed`` — B's median is better / worse than A's
  by more than the bound;
* ``within bound`` — otherwise.

Exits 1 on any regression, on any rise in the share of failed
operations, or when a workload or metric of A is missing from B.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["value"])


def verdict(a: dict, b: dict, metric: dict) -> str:
    bound = metric["bound"]
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"])
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "within bound"


def fail_frac(record: dict) -> float:
    return record["failed"] / record["attempted"]


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B passes the gate against A."""
    lines = []
    ok = True
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None:
            lines.append(f"{name}: missing from B")
            ok = False
            continue
        lines.append(f"== {name}")
        if fail_frac(rec_b) > fail_frac(rec_a):
            lines.append(f"   failed operations rose: "
                         f"{rec_a['failed']}/{rec_a['attempted']} -> "
                         f"{rec_b['failed']}/{rec_b['attempted']}")
            ok = False
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in rec_a["metrics"]:
                continue
            if key not in rec_b["metrics"]:
                lines.append(f"   {key}: missing from B")
                ok = False
                continue
            sa, sb = rec_a["metrics"][key], rec_b["metrics"][key]
            result = verdict(sa, sb, metric)
            ok = ok and result != "regressed"
            lines.append(
                f"   {key:18s} A {sa['value']:.6g} [{sa['q1']:.6g}, "
                f"{sa['q3']:.6g}]  B {sb['value']:.6g} [{sb['q1']:.6g}, "
                f"{sb['q3']:.6g}] {metric['unit']}: {result} "
                f"(bound {metric['bound']:.0%}, {metric['better']} is "
                f"better)")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", help="baseline results (run_bench.py --json)")
    parser.add_argument("b", help="results to check against the baseline")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    lines, ok = compare(a, b, spec)
    print("\n".join(lines))
    print("no regression" if ok else "REGRESSION")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
