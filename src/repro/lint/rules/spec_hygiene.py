"""Spec-hygiene rule: frozen ``*Spec`` dataclasses.

Every ``*Spec`` in the repo is a frozen dataclass by convention — specs
are hashable sweep-axis values and dict keys, and a mutable spec would
silently break canonicalization and artifact identity (REPRO201).  The
rule also covers ``ModelSpec``, ``ExperimentSpec`` and other ``*Spec``
classes that do not derive from :class:`repro.spec.Spec`.  Duplicate
registrations need no rule: :class:`repro.spec.Registry` and
:func:`~repro.lint.core.register_rule` raise on them at import.
"""

from __future__ import annotations

import ast

from ..core import FileContext, Rule, register_rule

__all__ = ["FrozenSpecRule"]


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` / ``@dataclasses.dataclass`` decorator node
    (bare or called), or None."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return deco
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return deco
    return None


@register_rule
class FrozenSpecRule(Rule):
    code = "REPRO201"
    name = "spec-must-freeze"
    description = (
        "*Spec dataclasses are canonical, hashable values; declare "
        "them @dataclass(frozen=True)")
    scope = ("src/",)

    def check_file(self, ctx: FileContext):
        if ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) \
                    or not node.name.endswith("Spec"):
                continue
            deco = _dataclass_decorator(node)
            if deco is None:
                continue
            frozen = isinstance(deco, ast.Call) and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords)
            if not frozen:
                yield ctx.finding(
                    self, node,
                    f"dataclass {node.name!r} ends in 'Spec' but is not "
                    "frozen; declare @dataclass(frozen=True)")
