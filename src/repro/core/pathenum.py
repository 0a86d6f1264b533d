"""PathEnum [15]: the state-of-the-art *single-query* algorithm.

Processes each query of the batch in isolation, exactly as the paper's
baseline does: a private two-BFS index (from ``s`` on G and ``t`` on G_r,
bounded by that query's ``k``, over its own edge collect) followed by the
index-pruned bidirectional search and ⊕ concatenation. The batch cost is
the sum of per-query jobs — no index sharing, no computation sharing; this
is what BasicEnum improves on via the shared multi-source index, and
BatchEnum via Ψ.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import astuple

from pyspark.sql import DataFrame, SparkSession

from repro.core.basic_enum import RunResult, run_basic
from repro.core.enumeration import EnumStats, no_paths
from repro.core.queries import Query, check_unique_qids


def run_pathenum(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
) -> RunResult:
    """Answer every query with an independent PathEnum run: BasicEnum on a
    batch of one, whose index is bounded by that query's own ``k``."""
    check_unique_qids(queries)
    runs = [run_basic(spark, edges, [q]) for q in queries]
    timings: Counter[str] = Counter()
    results = no_paths(spark)
    for rr in runs:
        timings.update(rr.timings)
        results = results.unionByName(rr.results)
    stats = EnumStats(*map(sum, zip(*(astuple(rr.stats) for rr in runs))))
    n_paths = sum(rr.extras["n_paths"] for rr in runs)
    return RunResult(results, dict(timings), stats, {"n_paths": n_paths})
