"""Built-in rule families.  Importing this package registers them all.

=========  ===============================  =============================
code       rule                             family
=========  ===============================  =============================
REPRO101   unseeded-module-rng              determinism
REPRO102   wall-clock-read                  determinism
REPRO103   set-iteration-order              determinism
REPRO201   spec-must-freeze                 spec hygiene
REPRO202   duplicate-registration           spec hygiene
REPRO301   grammar-round-trip               grammar round-trip
REPRO302   legacy-alias-shadowing           grammar round-trip
REPRO501   schema-discipline                schema discipline
REPRO601   mutable-default-argument         general safety
REPRO602   float-equality-sim               general safety
REPRO603   bare-except                      general safety
REPRO604   tolerance-free-float-assert      general safety
REPRO700   unused-pragma                    (emitted by the runner)
REPRO900   parse-error                      (emitted by the runner)
=========  ===============================  =============================
"""

from . import determinism, roundtrip, safety, schema, \
    spec_hygiene  # noqa: F401

__all__ = ["determinism", "roundtrip", "safety", "schema",
           "spec_hygiene"]
