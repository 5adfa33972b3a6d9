"""Built-in rule families.  Importing this package registers them all.

=========  ===============================  =============================
code       rule                             family
=========  ===============================  =============================
REPRO101   unseeded-module-rng              determinism
REPRO102   wall-clock-read                  determinism
REPRO103   set-iteration-order              determinism
REPRO201   spec-must-freeze                 spec hygiene
REPRO501   schema-discipline                schema discipline
REPRO601   mutable-default-argument         general safety
REPRO602   float-equality-sim               general safety
REPRO604   tolerance-free-float-assert      general safety
REPRO700   unused-pragma                    (emitted by the runner)
REPRO900   parse-error                      (emitted by the runner)
=========  ===============================  =============================

Checks that a stronger mechanism already enforces have no rule here:
duplicate registrations raise at import (:class:`repro.spec.Registry`,
:func:`~repro.lint.core.register_rule`); the grammar round trip and the
legacy method aliases are asserted by ``tests/spec/test_spec_golden.py``
and ``tests/methods/test_spec.py``; a bare ``except:`` is ruff's E722.
"""

from . import determinism, safety, schema, spec_hygiene  # noqa: F401

__all__ = ["determinism", "safety", "schema", "spec_hygiene"]
