"""Suite-wide fixtures.

The open registries are process-wide, so a family a test registers, or
a built-in it overrides with ``replace=True``, would stay visible to
every later test.  :func:`isolated_registries` puts every spec-field
registry and the lint-rule registry back as they were after each test.
"""

import pytest

from repro.api.fields import SPEC_FIELDS
from repro.lint import core as lint_core

#: Each registry once (the scheduler and kvstore fields list two).
_REGISTRIES = tuple({id(registry): registry
                     for spec_field in SPEC_FIELDS
                     for registry in spec_field.registries}.values())


@pytest.fixture(autouse=True)
def isolated_registries():
    saved = [(registry, registry.catalog()) for registry in _REGISTRIES]
    rules = dict(lint_core._RULES)
    yield
    for registry, entries in saved:
        registry._entries.clear()
        registry._entries.update(entries)
    lint_core._RULES.clear()
    lint_core._RULES.update(rules)
