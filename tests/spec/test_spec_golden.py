"""Golden pin of the ``family?k=v`` grammar's observable strings.

Canonical spec strings end up in scenario JSON, artifact slugs and
sweep-axis labels, so they must never drift.  ``spec_golden.json``
pins, for the built-in families of all eleven registries:

* ``canonical`` of the bare family name and of its full default
  signature, and the ``signature()`` itself (both must also be fixed
  points: ``parse(canonical(t)) == parse(t)``);
* the canonical form of every spec string used in ``tests/``,
  ``examples/`` and the CI smoke commands (a string used there but not
  pinned fails);
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

from repro.api.fields import SPEC_FIELDS
from repro.spec import split_list

GOLDEN = Path(__file__).with_name("spec_golden.json")
ROOT = Path(__file__).resolve().parents[2]


def _family_rows(canonical, families: dict) -> dict:
    rows = {}
    for name, family in families.items():
        signature = family.signature()
        rows[name] = {"signature": signature,
                      "bare": canonical(name),
                      "full": canonical(signature)}
    return rows


def _fresh(*args: str) -> str:
    """Standard output of ``python *args`` in a fresh interpreter, where
    only the built-in families are registered (tests register more)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, check=True).stdout


def _cli_list_json() -> str:
    return _fresh("-m", "repro.cli", "list", "--json")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


FIELDS = tuple(spec_field.name for spec_field in SPEC_FIELDS)


@pytest.mark.parametrize("spec_field", SPEC_FIELDS, ids=FIELDS)
def test_family_canonicals_and_signatures(spec_field):
    canonical, parse = spec_field.spec.canonical_of, spec_field.spec.parse
    pinned = _golden()["families"][spec_field.name]
    for registry in spec_field.registries:
        live = registry.catalog()
        expected = pinned[registry.key]
        assert set(expected) <= set(live), registry.key
        got = _family_rows(canonical,
                           {name: live[name] for name in expected})
        assert got == expected
        # The canonical form is a fixed point of the grammar, for the
        # bare name and the full default signature alike.
        for name, row in got.items():
            for text in (name, row["signature"]):
                assert parse(canonical(text)) == parse(text), text
                assert canonical(canonical(text)) == canonical(text), text


@pytest.mark.parametrize("spec_field", SPEC_FIELDS, ids=FIELDS)
def test_used_spec_strings_canonicalize_unchanged(spec_field):
    canonical = spec_field.spec.canonical_of
    pinned = _golden()["strings"][spec_field.name]
    assert {text: canonical(text) for text in pinned} == pinned


def test_every_used_spec_string_is_pinned():
    pinned = _golden()["strings"]
    used = json.loads(_fresh(__file__, "--used"))
    for field, found in used.items():
        assert not set(found) - set(pinned[field]), field


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


def _used_strings() -> dict:
    """field -> {spec string found by :func:`_collect_strings`: its
    canonical form}."""
    literals = sorted(_collect_strings())
    strings = {}
    for spec_field in SPEC_FIELDS:
        found = {}
        for literal in literals:
            candidates = {literal, *split_list(literal)}
            if spec_field.name == "methods":
                candidates |= {m for c in set(candidates)
                               for m in c.split("+")}
            for text in sorted(candidates):
                try:
                    found[text] = spec_field.spec.canonical_of(text)
                except (ValueError, TypeError, KeyError):
                    pass
        strings[spec_field.name] = found
    return strings


def _snapshot() -> dict:
    families = {
        spec_field.name: {
            registry.key: _family_rows(spec_field.spec.canonical_of,
                                       registry.catalog())
            for registry in spec_field.registries}
        for spec_field in SPEC_FIELDS}
    return {"families": families, "strings": _used_strings(),
            "cli_list_json": _cli_list_json()}


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(_snapshot(), indent=1,
                                     sort_keys=True) + "\n")
    elif sys.argv[1:] == ["--used"]:
        print(json.dumps(_used_strings()))
    else:
        sys.exit("usage: test_spec_golden.py --write | --used")
