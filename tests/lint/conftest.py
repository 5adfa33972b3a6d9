"""Shared helpers for the repro-lint test suite.

Fixture files live in ``tests/lint/fixtures`` and are excluded from
the default lint walk (they violate rules on purpose).  Scoped rules
are exercised by re-homing a fixture's source under a synthetic
relpath (e.g. ``src/repro/sim/…``) via :class:`FileContext`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.lint.core import FileContext, ProjectContext

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def repo_root():
    return REPO_ROOT


@pytest.fixture
def fixture_ctx():
    """fixture_ctx(name, relpath) -> FileContext of a fixture file,
    linted as if it lived at ``relpath``."""

    def make(name, relpath):
        return FileContext(relpath, (FIXTURES / name).read_text())

    return make


@pytest.fixture
def mini_project():
    """mini_project(dirname) -> ProjectContext over a fixture
    mini-repo (e.g. ``schema_violation`` with its own src/ tree)."""
    from repro.lint.runner import collect_files

    def make(dirname):
        root = FIXTURES / dirname
        return ProjectContext(root, collect_files(root))

    return make


@pytest.fixture
def load_fixture_module():
    """Import a fixture .py file as a uniquely-named module (for the
    round-trip rule, whose table names importable modules)."""
    loaded = []

    def load(name, modname):
        spec = importlib.util.spec_from_file_location(
            modname, FIXTURES / name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[modname] = module
        loaded.append(modname)
        spec.loader.exec_module(module)
        return module

    yield load
    for modname in loaded:
        sys.modules.pop(modname, None)
