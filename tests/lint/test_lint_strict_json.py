"""The lint JSON writers emit standard JSON.

``json.dumps`` writes NaN and ±inf as the non-standard tokens ``NaN``
and ``Infinity`` unless told not to.  The report and schema-pin
writers refuse them, and a refused file is not written.
"""

from pathlib import Path

import pytest

from repro.lint.core import Finding
from repro.lint.report import render_json
from repro.lint.rules import schema
from repro.lint.runner import LintResult

NAN_FINDING = Finding(path="src/a.py", line=float("nan"), code="REPRO101",
                      message="m")


def test_report_rejects_nan():
    result = LintResult(root=Path("."), n_files=1, findings=[NAN_FINDING])
    with pytest.raises(ValueError):
        render_json(result)


def test_schema_pin_rejects_nan(monkeypatch, tmp_path):
    monkeypatch.setattr(schema, "extract_schema",
                        lambda project: {"schema_version": float("nan")})
    path = tmp_path / "pin.json"
    with pytest.raises(ValueError):
        schema.write_pin(None, path)
    assert not path.exists()
