"""The benchmark's per-layer trace wraps layer functions by module attribute
(``perfbench/spans.py``); a renamed or removed function, or one no longer
looked up where the trace wraps it, must fail here, in the unit tests, not
only in the benchmark's own smoke test."""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.core.basic_enum import run_basic
from repro.core.batch_enum import run_batch
from repro.core.queries import gen_queries

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def import_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_wrapped_layer_function_resolves(monkeypatch):
    spans = import_spans(monkeypatch)
    missing = [
        (module, attr)
        for module, attr, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.WRAPPED and missing == []


@pytest.mark.parametrize("algo,run", [("batch", run_batch), ("basic", run_basic)])
def test_every_traced_layer_is_entered(monkeypatch, spark, tiny_edges, tiny_adj, algo, run):
    # A layer function called under another name than the one the trace
    # wraps opens no span, and its jobs are silently charged to the root.
    spans = import_spans(monkeypatch)
    queries = gen_queries(tiny_adj, 10, k_range=(3, 5), share=0.5, seed=7)
    tracer = spans.Tracer(spark).install()
    try:
        with tracer.span(spans.ROOT, run.__name__, algo):
            run(spark, tiny_edges, queries)
    finally:
        tracer.uninstall()
    entered = {sp.name for sp in tracer.run_spans(algo)}
    assert set(spans.LAYERS[algo]) - entered == set()
    assert tracer.read_jobs(algo) == tracer.run_spans(algo)[0].submitted
