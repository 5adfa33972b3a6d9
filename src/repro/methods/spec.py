"""Open, serializable, sweepable method definitions: the :class:`MethodSpec`.

A :class:`MethodSpec` is a declarative description of one system under
comparison — a **family** name plus keyword parameters::

    MethodSpec.of("hack", partition_size=128, bits=4,
                  summation_elimination=False)

It is JSON-serializable (``{"family": "hack", "partition_size": 128,
…}``), has a compact string grammar for CLIs and sweep axes
(``hack?pi=128,bits=4,se=off``), and resolves through a *single* path
into both sides of the comparison:

* :meth:`MethodSpec.build_method` — the performance-model
  :class:`~repro.methods.base.Method` (byte counts, per-iteration
  flags);
* :meth:`MethodSpec.build_compressors` — the accuracy-side
  :class:`~repro.quant.base.KVCompressor` pair (K plane, V plane);
* :meth:`MethodSpec.attention_output` — the accuracy harness's
  attention replay (homomorphic for HACK, compress→decompress→attend
  for dequantize-first systems).

Because both sides are materialized from the same parameters by the
same :class:`MethodFamily`, the perf model and the accuracy harness can
never silently disagree about what e.g. ``hack?pi=128`` means.

Families are registered with the :func:`register_family` decorator and
the registry is *open*: user code can add families (see
``examples/custom_method.py``) and sweep their parameters exactly like
the built-in ones (``Sweep`` axes named ``method.<param>``).  The string
grammar, parameter coercion and registry mechanics are the shared ones
of :mod:`repro.spec`; keys may use a family's short aliases (``pi`` for
``partition_size``, ``se`` for ``summation_elimination``, …).

The paper's historical method names (``baseline``, ``hack_pi128``, …)
are **legacy aliases**: each maps to a MethodSpec (plus purely cosmetic
``name``/``display_name`` overrides) and resolves to a Method
bit-for-bit identical to the pre-spec registry entry, so existing
scenario JSON, artifact files and slugs are untouched.  A method
reference is a legacy name or a ``family[?key=value,…]`` clause.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..spec import Family, Param, Registry, Spec, parse_clause, split_list, \
    suggest
from .base import Method

__all__ = [
    "MethodSpec",
    "MethodFamily",
    "ParamDef",
    "register_family",
    "get_family",
    "method_families",
    "register_legacy_alias",
    "legacy_names",
    "method_spec",
    "resolve_method",
    "canonical_method",
    "parse_method",
    "split_method_list",
    "apply_method_params",
]

#: A family parameter: the shared :class:`~repro.spec.Param`.
ParamDef = Param


class MethodFamily(Family):
    """Base class for method families (subclass + :func:`register_family`).

    A family turns a parameter assignment into every runtime view of a
    method.  Subclasses set :attr:`params` and implement
    :meth:`build_method`; quantizing families additionally implement
    :meth:`build_compressors` (and may override :meth:`attention_output`
    when their accuracy path is not dequantize-first).
    """

    #: True for methods that introduce no quantization error (baseline).
    exact: bool = False

    def build_method(self, **params) -> Method:
        """The performance-model :class:`Method` for this assignment."""
        raise NotImplementedError

    def build_compressors(self, **params):
        """``(K-plane, V-plane)`` compressors, or None if the family
        has no accuracy-side codec."""
        return None

    def attention_output(self, params: dict, q, k, v, rng):
        """One attention replay through the method's quantization path.

        The default models dequantize-first systems: round-trip K/V
        through :meth:`build_compressors` and attend exactly.  Families
        whose kernels compute on quantized operands (HACK) override
        this.
        """
        pair = self.build_compressors(**params)
        if pair is None:
            raise ValueError(
                f"method family {self.name!r} defines no accuracy path "
                "(no compressors); override attention_output or "
                "build_compressors"
            )
        from ..core.attention import attention_reference

        k_hat, _ = pair[0].roundtrip(k)
        v_hat, _ = pair[1].roundtrip(v)
        return attention_reference(q, k_hat, v_hat, causal=False)


_FAMILIES = Registry("method family", MethodFamily, role="method",
                     key="method_families", instances=True)

#: Class decorator registering a :class:`MethodFamily` subclass::
#:
#:     @register_family("toy")
#:     class ToyFamily(MethodFamily):
#:         params = {"knob": ParamDef(1.0)}
#:         def build_method(self, *, knob): ...
register_family = _FAMILIES.register
get_family = _FAMILIES.get
method_families = _FAMILIES.catalog


# -- the spec -----------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec(Spec):
    """A declarative method definition: family + parameters.

    Parameters are normalized as for every :class:`~repro.spec.Spec`.
    An explicitly-given default is *kept*: ``hack?pi=64`` stays distinct
    from ``hack`` (they build equivalent Methods but serialize, key and
    slug as written — what you write is what you get).
    """

    family: str
    params: tuple[tuple[str, object], ...] = ()

    registry = _FAMILIES

    @property
    def kind(self) -> str:
        return self.family

    @property
    def is_exact(self) -> bool:
        return self.entry().exact

    # -- resolution -----------------------------------------------------------

    def build_method(self) -> Method:
        """Materialize the performance-model :class:`Method`."""
        return self.entry().build_method(**self.resolved_params())

    def build_compressors(self):
        """Materialize the ``(K, V)`` accuracy compressors (or None)."""
        return self.entry().build_compressors(**self.resolved_params())

    def attention_output(self, q, k, v, rng):
        """One accuracy-harness attention replay (see
        :meth:`MethodFamily.attention_output`)."""
        return self.entry().attention_output(
            self.resolved_params(), q, k, v, rng)

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Flat JSON form: ``{"family": …, <param>: <value>, …}``."""
        return {"family": self.family, **dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "MethodSpec":
        if "family" not in data:
            raise ValueError(
                f"method spec dict needs a 'family' key, got "
                f"{sorted(data)}"
            )
        params = {k: v for k, v in data.items() if k != "family"}
        return cls(data["family"], tuple(params.items()))

    @classmethod
    def from_reference(cls, method) -> "MethodSpec":
        """The spec behind any method reference: a spec, a flat JSON
        dict, a legacy name, or a grammar string."""
        if isinstance(method, dict):
            return cls.from_dict(method)
        return super().from_reference(method)

    @classmethod
    def canonical_of(cls, method) -> str:
        """The canonical string of a method reference.  Legacy names
        canonicalize to themselves, so pre-spec scenarios serialize and
        slug exactly as before."""
        if isinstance(method, str) and method.strip() in _LEGACY:
            return method.strip()
        return super().canonical_of(method)

    @classmethod
    def parse(cls, text: str) -> "MethodSpec":
        """Parse ``family[?key=value,…]``.  Legacy alias names resolve
        to their underlying spec (cosmetic name overrides drop; use
        :func:`resolve_method` to keep them)."""
        text = text.strip()
        if text in _LEGACY:
            return _LEGACY[text].spec
        family = text.partition("?")[0].strip()
        if family not in _FAMILIES:
            raise ValueError(f"unknown method {family!r}"
                             f"{suggest(family, [*_FAMILIES, *_LEGACY])}")
        _, family, pairs = parse_clause(text, (_FAMILIES,), "method",
                                        "method")
        return cls(family, pairs)

    @classmethod
    def known(cls, method: str) -> bool:
        """True when a string method reference names a legacy alias or
        a family registered in this process (its parameters may still
        be invalid)."""
        return method.strip() in _LEGACY or _FAMILIES.has(method)


parse_method = MethodSpec.parse
split_method_list = split_list


# -- legacy aliases -----------------------------------------------------------

@dataclass(frozen=True)
class _LegacyAlias:
    spec: MethodSpec
    #: Cosmetic Method-field overrides (name, display_name).
    overrides: tuple[tuple[str, str], ...] = ()


_LEGACY: dict[str, _LegacyAlias] = {}


def register_legacy_alias(alias: str, spec: MethodSpec, *,
                          name: str | None = None,
                          display_name: str | None = None) -> None:
    """Map a historical registry name to a spec (plus cosmetic
    ``name``/``display_name`` overrides applied to the built Method)."""
    if alias in _LEGACY:
        raise ValueError(f"legacy method name {alias!r} already registered")
    overrides = {k: v for k, v in
                 (("name", name), ("display_name", display_name))
                 if v is not None}
    _LEGACY[alias] = _LegacyAlias(spec, tuple(sorted(overrides.items())))


def legacy_names() -> tuple[str, ...]:
    """The historical method names, in registration order."""
    return tuple(_LEGACY)


# -- resolution entry points --------------------------------------------------

has_registered_family = MethodSpec.known
method_spec = MethodSpec.from_reference
canonical_method = MethodSpec.canonical_of


def resolve_method(method) -> Method:
    """Materialize the performance-model :class:`Method` for any method
    reference.  Legacy names keep their historical ``name`` and
    ``display_name``, so they resolve bit-for-bit as they always have."""
    if isinstance(method, str):
        alias = _LEGACY.get(method.strip())
        if alias is not None:
            built = alias.spec.build_method()
            if alias.overrides:
                built = dataclasses.replace(built, **dict(alias.overrides))
            return built
    return method_spec(method).build_method()


def apply_method_params(method, changes: dict) -> tuple[str, set]:
    """Apply sweep-axis parameter ``changes`` to one method reference.

    Returns ``(canonical string, applied)`` where ``applied`` holds the
    ``changes`` keys (as given, aliases included) that the method's
    family defines; the rest pass through unchanged — e.g. ``baseline``
    in a ``method.partition_size`` sweep over ``baseline,hack`` comes
    back verbatim with an empty set."""
    spec = method_spec(method)
    declared = spec.entry().params
    aliases = {p.alias for p in declared.values() if p.alias is not None}
    applicable = {k: v for k, v in changes.items()
                  if k in declared or k in aliases}
    if not applicable:
        return canonical_method(method), set()
    return spec.with_params(**applicable).canonical(), set(applicable)
