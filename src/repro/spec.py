"""The one ``family?k=v`` grammar every open registry speaks.

Methods, arrival processes, scheduling policies, KV stores and their
eviction policies, compression selection, faults, recovery, autoscalers
and admission policies are all *families*: a registered name plus typed
keyword parameters, written as one string grammar::

    clause  = family [ "?" param ( "," param )* ]
    param   = key "=" value
    value   = int | float | "on" | "off" | "true" | "false" | word

``hack?pi=128,bits=4`` names the ``hack`` method family with two
parameters.  Three specs *compose* clauses with ``+``: a scheduler pairs
a dispatch and a placement policy (``random?seed=7+no_swap``), a KV
store pairs a store family and an eviction policy
(``tiered?dram_gb=8.0+lfu``), and a fault plan joins any number of
faults (``replica_crash+transfer_flap?p_fail=0.1``).

A *list* of specs (``--methods``, sweep-axis values) is comma-separated.
A ``key=value`` token that follows an open ``?`` clause continues that
clause, and only the last ``+`` member of an entry can hold an open
clause, so ``baseline+hack?pi=128,bits=4,kvquant`` is the two entries
``baseline+hack?pi=128,bits=4`` and ``kvquant`` (:func:`split_list`).

This module holds the parts every family shares:

* :class:`Param` — one parameter declaration; its default fixes the
  type (bool, int, float or a word-safe string) and :meth:`Param.coerce`
  validates and converts values of that type;
* :class:`Registry` — one open registry: ``register`` (the name rule, the
  duplicate check, ``replace=``), ``get`` with typo suggestions,
  ``catalog`` and ``has``;
* :class:`Spec` — the frozen ``kind`` + ``params`` value every
  single-clause spec derives from: normalisation, ``of``,
  ``resolved_params``, ``canonical`` and ``parse``;
* :func:`parse_clause`, :func:`split_plus` and :func:`split_list` — the
  grammar itself.

A spec's ``params`` holds only the parameters given explicitly, under
their long names, coerced and sorted, so different spellings of one spec
compare, hash and canonicalize equal.  An explicitly-given default is
kept: ``gamma?cv=2.0`` stays distinct from ``gamma``.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
import re
from dataclasses import KW_ONLY, dataclass
from typing import ClassVar

__all__ = [
    "Family",
    "Param",
    "Policy",
    "Reference",
    "Registry",
    "Spec",
    "format_value",
    "names_all",
    "parse_clause",
    "signature",
    "split_list",
    "share_namespace",
    "split_plus",
    "suggest",
]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_TRUE_TOKENS = frozenset({"on", "true", "yes", "1"})
_FALSE_TOKENS = frozenset({"off", "false", "no", "0"})
#: Grammar metacharacters: a string value holding one would
#: canonicalize to a string that cannot re-parse.
_METACHARS = ",=?+ "


def suggest(name: str, candidates) -> str:
    """A ``; did you mean …?`` (or ``; choose from …``) error suffix."""
    candidates = list(dict.fromkeys(candidates))
    matches = difflib.get_close_matches(name, candidates, n=3)
    if matches:
        return "; did you mean " + " or ".join(repr(m) for m in matches) + "?"
    return f"; choose from {', '.join(sorted(candidates))}"


def format_value(value) -> str:
    """The grammar spelling of a parameter value."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        # repr is the shortest *exact* round-trip: %g's 6 significant
        # digits would collapse distinct values (e.g. two keep=0.333…
        # sweeps) into one canonical string and one scenario slug.
        return repr(value)
    return str(value)


def _render(name: str, items) -> str:
    parts = [f"{key}={format_value(value)}" for key, value in items]
    return f"{name}?{','.join(parts)}" if parts else name


@dataclass(frozen=True)
class Param:
    """One family parameter.

    The default fixes the type: bool, int, float, or a word-safe string
    (free of the grammar's metacharacters).  ``alias`` is an optional
    short key for the string grammar (``pi`` for ``partition_size``);
    ``choices`` optionally restricts the allowed values.
    """

    default: object
    doc: str = ""
    _: KW_ONLY
    alias: str | None = None
    choices: tuple | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.default, (bool, int, float, str)):
            raise ValueError(
                f"parameter default must be a bool, number or string, "
                f"got {type(self.default).__name__}"
            )
        self.coerce(self.default, "parameter default")

    def coerce(self, value, where: str):
        """``value`` converted to this parameter's type; ``ValueError``
        (prefixed with ``where``) when it does not fit."""
        if isinstance(self.default, bool):
            if isinstance(value, str):
                token = value.lower()
                if token in _TRUE_TOKENS:
                    value = True
                elif token in _FALSE_TOKENS:
                    value = False
                else:
                    raise ValueError(
                        f"{where} expects on/off (or true/false), got "
                        f"{value!r}"
                    )
            elif isinstance(value, int) and value in (0, 1):
                # The grammar's 1/0 spellings arrive as ints from sweep
                # axes (the CLI coerces numeric tokens before we see them).
                value = bool(value)
            if not isinstance(value, bool):
                raise ValueError(f"{where} expects a boolean, got {value!r}")
        elif isinstance(self.default, int):
            if isinstance(value, bool) or \
                    (isinstance(value, float) and not value.is_integer()):
                raise ValueError(f"{where} expects an integer, got {value!r}")
            try:
                value = int(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where} expects an integer, got {value!r}"
                ) from None
        elif isinstance(self.default, float):
            if isinstance(value, bool):
                raise ValueError(f"{where} expects a number, got {value!r}")
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where} expects a number, got {value!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{where} expects a finite number, got {value!r}"
                )
        elif not isinstance(value, str):
            raise ValueError(f"{where} expects a string, got {value!r}")
        elif not value or any(c in value for c in _METACHARS):
            raise ValueError(
                f"{where} string values must be non-empty and free of "
                f"',', '=', '?', '+' and spaces; got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"{where} must be one of "
                f"{', '.join(str(c) for c in self.choices)}; got {value!r}"
            )
        return value


def signature(family) -> str:
    """Grammar template with every default spelled out, e.g.
    ``gamma?cv=2.0`` (just the name for a parameterless family)."""
    return _render(family.name, ((p.alias or name, p.default)
                                 for name, p in family.params.items()))


class Family:
    """Base of every registered family: a registry name, a one-line
    description shown by ``cli list`` and a parameter table (name ->
    :class:`Param`).  Registries of instances use it directly."""

    #: Registry key; also the prefix of the string grammar.
    name: str = "abstract"
    #: One-line summary shown by ``cli list``.
    description: str = ""
    #: Parameter table: name -> :class:`Param`.
    params: dict[str, Param] = {}

    def validate(self, **params) -> None:
        """Raise ``ValueError`` for out-of-range parameter values."""

    def signature(self) -> str:
        """Grammar template with defaults, e.g. ``gamma?cv=2.0``."""
        return signature(self)


class Policy(Family):
    """Base of the families registered as classes: a spec's ``build``
    instantiates one per run with the resolved parameters as ``p``."""

    def __init__(self, **params) -> None:
        self.p = params

    def bind(self, sim) -> None:
        """Called once with the simulator before the run starts."""

    @classmethod
    def validate(cls, **params) -> None:
        """Raise ``ValueError`` for out-of-range parameter values
        (called before any instance is constructed)."""

    @classmethod
    def signature(cls) -> str:
        """Grammar template with defaults, e.g. ``random?seed=0.0``."""
        return signature(cls)


class Registry:
    """One open registry of named families.

    ``noun`` names an entry in error messages (``"arrival process"``),
    ``role`` is the short word for it (``"arrival"``) and ``key`` is the
    registry's ``cli list --json`` key and enumerator name
    (``"arrival_processes"``).  Entries must derive from ``base``; with
    ``instances=True`` the registry stores one instance per family
    (methods, arrival processes, store families), otherwise the class
    itself (policies are instantiated per run).  Registries listed in
    ``peers`` share one name namespace with this one, so a bare name in a
    ``+``-composition resolves to exactly one role.

    Registration is per-process: worker processes must import the
    registering module before resolving its specs.  The fork-based
    ``Runner(workers=N)`` pool inherits registrations; on platforms
    without fork, register in a module the workers import.
    """

    def __init__(self, noun: str, base: type, *, role: str, key: str,
                 instances: bool = False) -> None:
        self.noun = noun
        self.base = base
        self.role = role
        self.key = key
        self.instances = instances
        self.peers: tuple[Registry, ...] = ()
        self._entries: dict = {}

    def register(self, target=None, *, replace: bool = False):
        """Register a family: ``@register``, ``@register(replace=True)``
        or ``@register("name")`` (overriding the class's ``name``).
        Registering a taken name raises unless ``replace=True``."""
        name = target if isinstance(target, str) else None

        def decorator(obj):
            family = obj() if self.instances and isinstance(obj, type) \
                else obj
            if name is not None:
                family.name = name
            if not (isinstance(family, self.base) if self.instances
                    else isinstance(obj, type) and issubclass(obj, self.base)):
                raise TypeError(
                    f"{getattr(obj, '__name__', obj)!r} must subclass "
                    f"{self.base.__name__}"
                )
            if not _NAME_RE.match(family.name or ""):
                raise ValueError(
                    f"{self.noun} name {family.name!r} must match "
                    f"{_NAME_RE.pattern}"
                )
            owner = next((r for r in (self, *self.peers)
                          if family.name in r), None)
            if owner is self and not replace:
                raise ValueError(
                    f"{self.noun} {family.name!r} is already registered; "
                    "pass replace=True to override"
                )
            if owner not in (None, self):
                raise ValueError(
                    f"{family.name!r} is already registered as a "
                    f"{owner.noun} ({self.noun} and {owner.noun} names "
                    "share one namespace)"
                )
            aliases: set[str] = set()
            for pname, param in family.params.items():
                if pname == "family":
                    raise ValueError("'family' is a reserved parameter name")
                if param.alias is not None:
                    if param.alias in family.params or param.alias in aliases:
                        raise ValueError(
                            f"alias {param.alias!r} of parameter {pname!r} "
                            "collides with another parameter"
                        )
                    aliases.add(param.alias)
            self._entries[family.name] = family
            return obj

        return decorator if target is None or name is not None \
            else decorator(target)

    def get(self, name: str):
        """The registered family, or ``ValueError`` with suggestions."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.noun} {name!r}{suggest(name, self.names())}"
            ) from None

    def catalog(self) -> dict:
        """All registered families (a copy, registration order)."""
        return dict(self._entries)

    def has(self, reference: str) -> bool:
        """True when a string reference names a family registered here
        (its parameters may still be invalid)."""
        return reference.strip().partition("?")[0].strip() in self._entries

    def pop(self, name: str, default=None):
        """Unregister ``name`` (returns the entry, or ``default``)."""
        return self._entries.pop(name, default)

    def names(self) -> list[str]:
        """Names registered here and in the peer registries."""
        return [n for r in (self, *self.peers) for n in r._entries]

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)


def names_all(reference: str, registries) -> bool:
    """True when every ``+``-part of a string reference names a family
    registered in one of ``registries`` (its parameters may still be
    invalid)."""
    return all(any(r.has(part) for r in registries)
               for part in reference.strip().split("+"))


def share_namespace(*registries: Registry) -> None:
    """Make ``registries`` one name namespace (see :class:`Registry`)."""
    for registry in registries:
        registry.peers = tuple(r for r in registries if r is not registry)


# -- the grammar ---------------------------------------------------------------

def parse_clause(text: str, registries, noun: str,
                 word: str) -> tuple[Registry, str, tuple]:
    """Parse one ``family[?key=value,…]`` clause into ``(registry, kind,
    pairs)``.  The family must be registered in one of ``registries``
    (``unknown {noun}`` otherwise); ``word`` names a malformed
    parameter (``bad {word} parameter``).  Values stay raw strings for
    the spec to coerce."""
    kind, sep, rest = text.strip().partition("?")
    kind = kind.strip()
    registry = next((r for r in registries if kind in r), None)
    if registry is None:
        names = [n for r in registries for n in r.names()]
        raise ValueError(f"unknown {noun} {kind!r}{suggest(kind, names)}")
    pairs = []
    if sep:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key or not value:
                raise ValueError(
                    f"bad {word} parameter {item!r} in {text!r}; the "
                    "grammar is family?key=value,key=value"
                )
            pairs.append((key, value))
    return registry, kind, tuple(pairs)


def split_plus(text: str, what: str, grammar: str) -> list[str]:
    """The ``+``-joined clauses of a composition (none may be empty)."""
    parts = [p.strip() for p in text.strip().split("+")]
    if not all(parts):
        raise ValueError(f"bad {what} {text!r}; the grammar is {grammar}")
    return parts


def split_list(text: str) -> list[str]:
    """Split a comma-separated spec list, keeping parameters attached:
    a ``key=value`` token after an open ``?`` clause continues it, and
    only an entry's last ``+`` member can hold an open clause
    (``"baseline+hack?pi=128,bits=4,kvquant"`` →
    ``["baseline+hack?pi=128,bits=4", "kvquant"]``)."""
    parts: list[str] = []
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


# -- specs -----------------------------------------------------------------------

def _aliases(params: dict) -> dict[str, str]:
    """Short alias -> long name over a parameter table."""
    return {p.alias: name for name, p in params.items()
            if p.alias is not None}


class Reference:
    """Conversions shared by every spec type: any reference (a spec or
    a grammar string) to a spec, and to its canonical string."""

    @classmethod
    def from_reference(cls, reference):
        """The spec behind a reference: a spec or a grammar string."""
        if isinstance(reference, cls):
            return reference
        if isinstance(reference, str):
            return cls.parse(reference)
        raise TypeError(
            f"expected a {cls.__name__} or string, got "
            f"{type(reference).__name__}"
        )

    @classmethod
    def canonical_of(cls, reference) -> str:
        """The canonical string form of a reference."""
        return cls.from_reference(reference).canonical()

    def __str__(self) -> str:
        return self.canonical()


class Spec(Reference):
    """Base of the single-clause specs: one family plus parameters.

    Subclasses are frozen dataclasses with ``kind`` and ``params``
    fields (``params`` may be given as a dict or as pairs) and set
    :attr:`registry`.  Construction normalises ``params`` (aliases to
    long names, coerced, sorted) and runs the family's ``validate``
    over the resolved parameters.
    """

    registry: ClassVar[Registry]

    def __post_init__(self) -> None:
        family = self.entry()
        declared = family.params
        aliases = _aliases(declared)
        items = self.params.items() if isinstance(self.params, dict) \
            else self.params
        what = f"{self.registry.noun} {self.kind!r}"
        normalized: dict = {}
        for key, value in items:
            name = aliases.get(key, key)
            if name not in declared:
                raise ValueError(
                    f"{what} has no parameter {key!r}"
                    f"{suggest(key, [*declared, *aliases])}"
                )
            if name in normalized:
                raise ValueError(f"parameter {name!r} given twice for {what}")
            normalized[name] = declared[name].coerce(
                value, f"parameter {name!r} of {what}")
        object.__setattr__(self, "params", tuple(sorted(normalized.items())))
        family.validate(**self.resolved_params())

    def entry(self):
        """The registered family this spec names."""
        return self.registry.get(self.kind)

    @classmethod
    def of(cls, kind: str, **params):
        """Keyword-style constructor: ``ArrivalSpec.of("gamma", cv=3.0)``."""
        return cls(kind, tuple(params.items()))

    @classmethod
    def parse(cls, text: str):
        """Parse ``family[?key=value,…]``."""
        _, kind, pairs = parse_clause(text, (cls.registry,),
                                      cls.registry.noun, cls.registry.role)
        return cls(kind, pairs)

    @classmethod
    def known(cls, reference: str) -> bool:
        """True when a string reference names a registered family."""
        return cls.registry.has(reference)

    def resolved_params(self) -> dict:
        """Family defaults overlaid with this spec's parameters."""
        out = {name: p.default for name, p in self.entry().params.items()}
        out.update(self.params)
        return out

    def with_params(self, **changes):
        """A copy with parameters changed (aliases accepted; a value of
        ``None`` drops the parameter back to its family default)."""
        aliases = _aliases(self.entry().params)
        merged = dict(self.params)
        for key, value in changes.items():
            name = aliases.get(key, key)
            if value is None:
                merged.pop(name, None)
            else:
                merged[name] = value
        return dataclasses.replace(self, params=tuple(merged.items()))

    def build(self):
        """A fresh policy instance (policies may hold per-run state)."""
        return self.entry()(**self.resolved_params())

    def canonical(self) -> str:
        """Compact string form, e.g. ``mmpp?burst=4.0,duty=0.1``."""
        declared = self.entry().params
        return _render(self.kind, ((declared[k].alias or k, v)
                                   for k, v in self.params))
