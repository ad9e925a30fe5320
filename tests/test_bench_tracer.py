"""The benchmark's tracer (bench/tracer.py) wraps holofubini's functions by name.

Installing it, running one small traced ``verify`` and uninstalling it must work, so
that deleting or renaming a traced name fails the test suite, not only the
benchmark's traced runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

from holofubini import cli, theorems

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("tracer")
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_traced_verify_restores_every_binding(tracer, tmp_path):
    checkers = {fn: getattr(theorems, fn) for fns in tracer.CHECKS.values() for fn in fns}
    traced = tracer.Tracer()
    traced.install()
    try:
        code = cli.main(["verify", "--family", "geometric", "--space", "uniform-4",
                         "--nodes", "64", "--output", str(tmp_path / "report.jsonl")])
        metrics = traced.layer_metrics()
    finally:
        traced.uninstall()
    assert code == 0
    assert traced.family_values > 0
    assert metrics["cli.records"] > 0 and metrics["check.fubini.calls"] > 0
    assert {fn: getattr(theorems, fn) for fn in checkers} == checkers
