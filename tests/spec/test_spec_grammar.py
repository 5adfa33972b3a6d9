"""Properties of the shared ``family?k=v`` grammar (``repro.spec``).

* every numeric parameter of every built-in family rejects NaN and
  infinities with a ``ValueError``;
* for random registered families and in-range parameter values,
  ``parse(canonical(s)) == s`` and ``canonical`` is idempotent;
* ``split_list`` returns a comma-joined list of canonical specs
  unchanged, and agrees with the per-family list splitters it replaced
  (kept here as oracles);
* every :class:`~repro.spec.Registry` shows up in ``cli list --json``.
"""

import json
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api.fields import FIELDS_BY_NAME, SPEC_FIELDS
from repro.cli import main
from repro.methods import legacy_names
from repro.spec import Param, Registry, format_value, split_list


def _builtin(family) -> bool:
    owner = family if isinstance(family, type) else type(family)
    return owner.__module__.startswith("repro.")


def _numeric_params():
    for spec_field in SPEC_FIELDS:
        for registry in spec_field.registries:
            for name, family in registry.catalog().items():
                if not _builtin(family):
                    continue
                for pname, param in family.params.items():
                    if isinstance(param.default, (int, float)) \
                            and not isinstance(param.default, bool):
                        yield spec_field.name, name, param.alias or pname


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field,family,param", list(_numeric_params()))
def test_non_finite_values_are_rejected(field, family, param, value):
    with pytest.raises(ValueError):
        FIELDS_BY_NAME[field].spec.parse(f"{family}?{param}={value}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   -float("inf")])
def test_param_coercion_rejects_non_finite_objects(value):
    with pytest.raises(ValueError, match="finite"):
        Param(1.0).coerce(value, "x")
    with pytest.raises(ValueError, match="integer"):
        Param(1).coerce(value, "x")


def test_param_default_must_be_a_grammar_value():
    with pytest.raises(ValueError):
        Param(float("nan"))
    with pytest.raises(ValueError):
        Param("two words")
    with pytest.raises(ValueError):
        Param([1])


# -- random specs ---------------------------------------------------------------

def _value_spellings(param: Param) -> list[str]:
    default = param.default
    if isinstance(default, bool):
        return ["on", "off", "true", "false", "1", "0"]
    if isinstance(default, int):
        return [str(v) for v in (default, 1, 2, 4, 8, 32, 128)]
    if isinstance(default, float):
        values = (default, default * 2, default / 2, 0.0, 0.1, 0.25, 0.5,
                  1.0, 3.0, 60.0)
        return [format_value(v) for v in values] + ["2", "1e1"]
    return [default, *(param.choices or ())]


@st.composite
def clauses(draw, registry: Registry, max_params=None) -> str:
    names = sorted(n for n, f in registry.catalog().items() if _builtin(f))
    name = draw(st.sampled_from(names))
    params = registry.get(name).params
    chosen = draw(st.lists(st.sampled_from(sorted(params)), unique=True,
                           max_size=min(len(params), max_params or 99))) \
        if params else []
    parts = [f"{draw(st.sampled_from([k, params[k].alias or k]))}="
             f"{draw(st.sampled_from(_value_spellings(params[k])))}"
             for k in chosen]
    return f"{name}?{','.join(parts)}" if parts else name


@st.composite
def spec_texts(draw, spec_field, listable=False) -> str:
    """A spec string of ``spec_field``'s grammar.  ``listable`` keeps it
    splittable out of a comma-separated list: a ``+`` member before the
    last (in canonical order) holds at most one parameter, since a comma
    inside it would be read as the next list entry."""
    registries = spec_field.registries
    if spec_field.name == "methods" and draw(st.booleans()):
        return draw(st.sampled_from(legacy_names()))
    if spec_field.name == "faults":
        roles = [registries[0]] * draw(st.integers(1, 3))
    elif len(registries) == 2:
        roles = draw(st.lists(st.sampled_from(registries), min_size=1,
                              max_size=2, unique=True))
        if listable:
            roles.sort(key=registries.index)
    else:
        roles = registries[:1]
    last = len(roles) - 1
    return "+".join(
        draw(clauses(r, max_params=1 if listable and i < last else None))
        for i, r in enumerate(roles))


def _parsed(spec_field, text):
    try:
        return spec_field.spec.parse(text)
    except ValueError:
        # Out-of-range combinations (validate()) are not this test's
        # business; the grammar must round-trip every spec that exists.
        assume(False)


fields = st.sampled_from(SPEC_FIELDS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_canonical_round_trip(data):
    spec_field = data.draw(fields)
    text = data.draw(spec_texts(spec_field))
    spec = _parsed(spec_field, text)
    canonical = spec_field.spec.canonical_of(text)
    assert spec_field.spec.parse(canonical) == spec
    assert spec_field.spec.canonical_of(canonical) == canonical
    assert spec_field.canonical(canonical) == canonical


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_split_list_keeps_canonical_lists(data):
    spec_field = data.draw(fields)
    texts = data.draw(st.lists(spec_texts(spec_field, listable=True),
                               min_size=1, max_size=4))
    for text in texts:
        _parsed(spec_field, text)
    canonicals = [spec_field.spec.canonical_of(t) for t in texts]
    assert split_list(",".join(canonicals)) == canonicals


# The per-family splitters ``split_list`` replaced, verbatim.  Methods,
# schedulers, KV stores and fault plans let only the last ``+`` member
# hold an open ``?`` clause; the single-clause families checked the
# whole entry.

def _old_split_plus_members(text):
    parts = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if parts and "=" in token and "?" not in token \
                and "?" in parts[-1].rsplit("+", 1)[-1]:
            parts[-1] += "," + token
        else:
            parts.append(token)
    return parts


def _old_split_whole_entry(text):
    parts = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if parts and "=" in token and "?" not in token and "?" in parts[-1]:
            parts[-1] += "," + token
        else:
            parts.append(token)
    return parts


_OLD_SPLITTERS = {
    "methods": _old_split_plus_members,
    "scheduler": _old_split_plus_members,
    "kvstore": _old_split_plus_members,
    "faults": _old_split_plus_members,
    "arrival": _old_split_whole_entry,
    "selection": _old_split_whole_entry,
    "recovery": _old_split_whole_entry,
    "autoscaler": _old_split_whole_entry,
    "admission": _old_split_whole_entry,
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_list_matches_the_old_per_family_splitters(data):
    spec_field = data.draw(fields)
    texts = data.draw(st.lists(spec_texts(spec_field, listable=True),
                               min_size=1, max_size=4))
    for text in texts:
        _parsed(spec_field, text)
    separator = data.draw(st.sampled_from([",", ", ", " ,"]))
    joined = separator.join(texts)
    old = _OLD_SPLITTERS[spec_field.name](joined)
    assert split_list(joined) == old
    assert [spec_field.spec.canonical_of(t) for t in old] == \
        [spec_field.spec.canonical_of(t) for t in texts]


def test_every_registry_is_listed(capsys):
    registries = {id(v): v for module in list(sys.modules.values())
                  if module is not None
                  and module.__name__.startswith("repro.")
                  for v in vars(module).values()
                  if isinstance(v, Registry)}
    assert len(registries) == 11
    assert main(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    for registry in registries.values():
        assert set(catalog[registry.key]) == set(registry.catalog())


def test_pair_grammar_names_stay_unique_even_with_replace():
    from repro.sim.scheduling import DecodePlacementPolicy, register_policy

    class Clash(DecodePlacementPolicy):
        name = "splitwise"          # a dispatch policy's name

    with pytest.raises(ValueError, match="share one namespace"):
        register_policy(replace=True)(Clash)
