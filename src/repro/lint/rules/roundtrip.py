"""Grammar round-trip rules: ``parse(canonical(spec)) == spec``.

Every registry speaks the same ``family?k=v`` string grammar, and the
whole scenario/artifact machinery assumes the canonical string form is
a fixed point: parsing it must reproduce the spec, and canonicalizing
it again must reproduce the string (slugs, artifact file names and
sweep-axis labels all depend on it).  REPRO301 *executes* that law for
every registered family — bare name and full default signature — by
importing the live registries, so a family whose parameter formatting
drifts is caught before any scenario slug does.  REPRO302 catches the
legacy-alias shadowing hazard in the method grammar.  (The cross-role
uniqueness the pair grammars rely on — a bare ``--scheduler`` or
``--kvstore`` name must resolve to exactly one role — is enforced by
:class:`repro.spec.Registry` at registration.)
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

from ...api.fields import SPEC_FIELDS
from ..core import Finding, ProjectContext, Rule, register_rule

__all__ = ["RoundTripRule", "CrossRoleUniquenessRule", "REGISTRIES"]

#: (role, module, enumerator, parse, canonical) for every registry
#: speaking the ``family?k=v`` grammar, read off the scenario's
#: spec-field table (:data:`repro.api.fields.SPEC_FIELDS`).
REGISTRIES = tuple(
    (registry.role, spec_field.spec.__module__, registry.key,
     f"parse_{spec_field.stem}", f"canonical_{spec_field.stem}")
    for spec_field in SPEC_FIELDS for registry in spec_field.registries)


def _anchor(project: ProjectContext, obj) -> tuple[str, int]:
    """(relpath, line) of a registered family/policy's definition, for
    attaching findings (and pragmas) to the offending declaration."""
    target = obj if inspect.isclass(obj) else type(obj)
    try:
        path = Path(inspect.getsourcefile(target))
        _, line = inspect.getsourcelines(target)
        return path.relative_to(project.root).as_posix(), line
    except (TypeError, OSError, ValueError):
        return "src/repro/__init__.py", 1


def check_roundtrip(names_to_objs: dict, parse, canonical,
                    signature_of=None):
    """Round-trip every family through its grammar; yields
    ``(obj, text, problem)`` tuples for failures.

    Checked per family: the bare name and the full default signature
    (every parameter spelled out) both satisfy
    ``parse(canonical(text)) == parse(text)`` with an idempotent
    canonical form.  ``signature_of`` defaults to the registered
    object's ``signature()``.
    """
    for name, obj in names_to_objs.items():
        texts = [name]
        sig = None
        if signature_of is not None:
            sig = signature_of(obj)
        elif hasattr(obj, "signature"):
            sig = obj.signature()
        if sig and sig != name:
            texts.append(sig)
        for text in texts:
            try:
                spec = parse(text)
                canon = canonical(text)
                respec = parse(canon)
                recanon = canonical(canon)
            except Exception as exc:
                yield obj, text, f"raised {type(exc).__name__}: {exc}"
                continue
            if respec != spec:
                yield (obj, text,
                       f"parse({canon!r}) != parse({text!r}) — canonical "
                       "form does not round-trip")
            elif recanon != canon:
                yield (obj, text,
                       f"canonical is not idempotent: {canon!r} -> "
                       f"{recanon!r}")


@register_rule
class RoundTripRule(Rule):
    code = "REPRO301"
    name = "grammar-round-trip"
    description = (
        "parse(canonical(spec)) must equal spec for every registered "
        "family (bare name and full default signature)")
    project_rule = True

    #: Overridable in tests: same shape as :data:`REGISTRIES`.
    table = REGISTRIES

    def check_project(self, project: ProjectContext):
        for role, module_name, enum_name, parse_name, canon_name \
                in self.table:
            module = importlib.import_module(module_name)
            families = getattr(module, enum_name)()
            parse = getattr(module, parse_name)
            canonical = getattr(module, canon_name)
            for obj, text, problem in check_roundtrip(
                    families, parse, canonical):
                path, line = _anchor(project, obj)
                yield Finding(
                    path=path, line=line, code=self.code,
                    message=f"{role} family grammar broken for "
                            f"{text!r}: {problem}",
                    rule=self.name)


@register_rule
class CrossRoleUniquenessRule(Rule):
    code = "REPRO302"
    name = "legacy-alias-shadowing"
    description = (
        "legacy method aliases must not shadow a different family "
        "(cross-role names in the pair grammars are refused at "
        "registration)")
    project_rule = True

    def check_project(self, project: ProjectContext):
        # A legacy method alias resolves before families in
        # parse_method, so an alias naming a *different* family makes
        # that family unreachable by its own name.
        from repro.methods import spec as method_spec_mod
        legacy = method_spec_mod._LEGACY
        families = method_spec_mod.method_families()
        for alias, entry in legacy.items():
            if alias in families and entry.spec.family != alias:
                path, line = _anchor(project, families[alias])
                yield Finding(
                    path=path, line=line, code=self.code,
                    message=f"legacy alias {alias!r} (-> family "
                            f"{entry.spec.family!r}) shadows the "
                            f"registered family {alias!r}",
                    rule=self.name)
