"""The benchmark's per-layer trace wraps layer functions by module attribute
(``perfbench/spans.py``); a renamed or removed function must fail here, in
the unit tests, not only in the benchmark's own smoke test. No Spark."""
from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_layer_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        (module, attr)
        for module, attr, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.WRAPPED and missing == []
