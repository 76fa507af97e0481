"""Shared fixtures."""

import json
from types import SimpleNamespace

import pytest

from twirlkit.cli import main


@pytest.fixture(scope="session")
def default_check(tmp_path_factory):
    """The ``check`` run at the documented default counts, made once per
    session: its exit code, its report and the report's properties by name."""
    out = tmp_path_factory.mktemp("check") / "report.json"
    code = main(["check", "--out", str(out)])
    report = json.loads(out.read_text())
    return SimpleNamespace(code=code, report=report, properties={p["name"]: p for p in report["properties"]})
