"""Driver-built tables are JVM-local relations, never Python-list frames.

A frame made from a Python list scans through a Python worker (~0.25 s per
scan even when empty); one made from pandas through Arrow is a
``LocalTableScan`` in the JVM (DESIGN.md §2).
"""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import SparkSession

from repro.core.basic_enum import run_basic
from repro.core.batch_enum import run_batch
from repro.graph.ops import local_frame
from tests.test_algorithms import PAPER_Q


def test_local_frame_is_local_table_scan(spark):
    df = local_frame(spark, [(1, "F", 3), (2, "B", 4)], "nid long, side string, budget int")
    plan = df._jdf.queryExecution().executedPlan().toString()
    assert plan.startswith("LocalTableScan"), plan
    assert df.dtypes == [("nid", "bigint"), ("side", "string"), ("budget", "int")]
    assert [tuple(r) for r in df.collect()] == [(1, "F", 3), (2, "B", 4)]


@pytest.mark.parametrize(
    "run,kwargs", [(run_batch, {"gamma": 0.8}), (run_basic, {})], ids=["batch", "basic"]
)
def test_no_list_backed_frames(spark, paper_edges, monkeypatch, run, kwargs):
    seen = []
    create = SparkSession.createDataFrame

    def recording(self, data, *args, **kw):
        seen.append(type(data))
        return create(self, data, *args, **kw)

    monkeypatch.setattr(SparkSession, "createDataFrame", recording)
    rr = run(spark, paper_edges, PAPER_Q, **kwargs)
    assert rr.extras["n_paths"] == 11
    assert seen and set(seen) == {pd.DataFrame}, seen
