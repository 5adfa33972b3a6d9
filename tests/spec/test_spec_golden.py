"""Golden pin of the ``family?k=v`` grammar's observable strings.

Canonical spec strings end up in scenario JSON, artifact slugs and
sweep-axis labels, so they must never drift.  ``spec_golden.json``
pins, for the built-in families of all eleven registries:

* ``canonical`` of the bare family name and of its full default
  signature, and the ``signature()`` itself;
* the canonical form of every spec string used in ``tests/``,
  ``examples/`` and the CI smoke commands;
* the exact ``python -m repro.cli list --json`` output.

Regenerate (only for a deliberate, reviewed grammar change) with
``PYTHONPATH=src python tests/spec/test_spec_golden.py --write``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("spec_golden.json")
ROOT = Path(__file__).resolve().parents[2]


def _grammars():
    """field -> (canonical, [(registry, enumerator)])."""
    from repro.kvstore.selection import canonical_selection, \
        selection_policies
    from repro.kvstore.spec import canonical_kvstore, eviction_policies, \
        kvstore_families
    from repro.methods import canonical_method, method_families
    from repro.sim.elastic import admission_policies, \
        autoscaler_policies, canonical_admission, canonical_autoscaler
    from repro.sim.faults import canonical_faults, fault_families
    from repro.sim.recovery import canonical_recovery, recovery_policies
    from repro.sim.scheduling import canonical_scheduler, \
        dispatch_policies, placement_policies
    from repro.workload.arrivals import arrival_processes, \
        canonical_arrival

    return {
        "methods": (canonical_method,
                    [("method_families", method_families)]),
        "arrival": (canonical_arrival,
                    [("arrival_processes", arrival_processes)]),
        "scheduler": (canonical_scheduler,
                      [("dispatch_policies", dispatch_policies),
                       ("placement_policies", placement_policies)]),
        "kvstore": (canonical_kvstore,
                    [("kvstore_families", kvstore_families),
                     ("eviction_policies", eviction_policies)]),
        "selection": (canonical_selection,
                      [("selection_policies", selection_policies)]),
        "faults": (canonical_faults, [("fault_families", fault_families)]),
        "recovery": (canonical_recovery,
                     [("recovery_policies", recovery_policies)]),
        "autoscaler": (canonical_autoscaler,
                       [("autoscaler_policies", autoscaler_policies)]),
        "admission": (canonical_admission,
                      [("admission_policies", admission_policies)]),
    }


def _family_rows(canonical, families: dict) -> dict:
    rows = {}
    for name, family in families.items():
        signature = family.signature()
        rows[name] = {"signature": signature,
                      "bare": canonical(name),
                      "full": canonical(signature)}
    return rows


def _cli_list_json() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "list", "--json"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        check=True).stdout


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


FIELDS = ("methods", "arrival", "scheduler", "kvstore", "selection",
          "faults", "recovery", "autoscaler", "admission")


@pytest.mark.parametrize("field", FIELDS)
def test_family_canonicals_and_signatures(field):
    canonical, registries = _grammars()[field]
    pinned = _golden()["families"][field]
    for key, enumerate_families in registries:
        live = enumerate_families()
        expected = pinned[key]
        assert set(expected) <= set(live), key
        got = _family_rows(canonical,
                           {name: live[name] for name in expected})
        assert got == expected


@pytest.mark.parametrize("field", FIELDS)
def test_used_spec_strings_canonicalize_unchanged(field):
    canonical, _ = _grammars()[field]
    pinned = _golden()["strings"][field]
    assert {text: canonical(text) for text in pinned} == pinned


def test_cli_list_json_is_byte_identical():
    assert _cli_list_json() == _golden()["cli_list_json"]


# -- regeneration ---------------------------------------------------------------

def _collect_strings() -> set:
    """Every string literal in tests/ and examples/ plus every token of
    the CI workflow (a superset; only strings that parse are kept)."""
    import ast
    import re
    import shlex

    out = set()
    for base in ("tests", "examples"):
        for path in sorted((ROOT / base).rglob("*.py")):
            if "fixtures" in path.parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    out.add(node.value)
    ci = (ROOT / ".github/workflows/ci.yml").read_text()
    for line in ci.splitlines():
        try:
            tokens = shlex.split(line.replace("\\", " "))
        except ValueError:
            continue
        for token in tokens:
            out.add(token)
            out.add(re.sub(r"^[\w.]+=", "", token))
    return out


def _snapshot() -> dict:
    from repro.kvstore.selection import split_selection_list
    from repro.kvstore.spec import split_kvstore_list
    from repro.methods import split_method_list
    from repro.sim.elastic import split_admission_list, \
        split_autoscaler_list
    from repro.sim.faults import split_faults_list
    from repro.sim.recovery import split_recovery_list
    from repro.sim.scheduling import split_scheduler_list
    from repro.workload.arrivals import split_arrival_list

    splitters = {
        "methods": split_method_list, "arrival": split_arrival_list,
        "scheduler": split_scheduler_list, "kvstore": split_kvstore_list,
        "selection": split_selection_list, "faults": split_faults_list,
        "recovery": split_recovery_list,
        "autoscaler": split_autoscaler_list,
        "admission": split_admission_list,
    }
    families, strings = {}, {}
    literals = _collect_strings()
    for field, (canonical, registries) in _grammars().items():
        families[field] = {key: _family_rows(canonical, enum())
                           for key, enum in registries}
        found = {}
        for literal in sorted(literals):
            candidates = {literal, *splitters[field](literal)}
            if field == "methods":
                candidates |= {m for c in set(candidates)
                               for m in c.split("+")}
            for text in sorted(candidates):
                try:
                    found[text] = canonical(text)
                except (ValueError, TypeError, KeyError):
                    pass
        strings[field] = found
    return {"families": families, "strings": strings,
            "cli_list_json": _cli_list_json()}


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(_snapshot(), indent=1,
                                     sort_keys=True) + "\n")
    else:
        sys.exit("usage: test_spec_golden.py --write")
