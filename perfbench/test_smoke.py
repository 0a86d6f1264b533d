"""Smoke test of the benchmark on the TINY graph.

    PYTHONPATH=src python -m pytest perfbench -q -p no:cacheprovider

It runs the benchmark command end to end in both modes and checks that every
metric of ``BENCHMARK.json`` is printed with its unit, then feeds the
correctness check an answer with one path dropped.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import bench
from oracle import Oracle
from repro.core.basic_enum import run_basic
from repro.core.queries import gen_queries
from repro.graph.generators import dataset
from repro.graph.ops import collect_adjacency

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = bench.SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    for m in spec:
        assert printed.get(m["name"]) == m["unit"], m["name"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    info = json.loads(lines[-2])
    assert info["failed_frac"] == 0 and info["n_paths"] > 0
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for algo in ("batch", "basic"):
            layers = bench.tr.LAYERS[algo]
            assert sum(values[f"{algo}.{x}.jobs"] for x in layers) == values[f"{algo}.jobs"]
            assert sum(values[f"{algo}.{x}.self_s"] for x in layers) == pytest.approx(
                values[f"{algo}.self.s"])


def test_a_dropped_path_counts_as_a_failure(spark):
    edges = dataset(spark, "TINY").cache()
    adj = collect_adjacency(edges)
    queries = gen_queries(adj, 6, k_range=(3, 4), share=0.5, min_dist=2, seed=3)
    results = run_basic(spark, edges, queries).results
    oracle = Oracle(adj, queries)
    try:
        assert oracle.failures(results) == []
        dropped = results.orderBy("qid", "path").limit(1)
        assert oracle.failures(results.exceptAll(dropped)) == [
            dropped.first()["qid"]]
    finally:
        oracle.close()
