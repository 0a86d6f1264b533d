"""PathEnum [15]: the state-of-the-art *single-query* algorithm.

Processes each query of the batch in isolation, exactly as the paper's
baseline does: a private two-BFS index (from ``s`` on G and ``t`` on G_r,
bounded by that query's ``k``) followed by the index-pruned bidirectional
search and ⊕ concatenation. The batch cost is the sum of per-query jobs —
no index sharing, no computation sharing; this is what BasicEnum improves
on via the shared multi-source index, and BatchEnum via Ψ.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core import index as idx
from repro.core.basic_enum import RunResult
from repro.core.enumeration import (
    EnumStats,
    assemble,
    build_allow,
    enumerate_nodes,
    no_paths,
)
from repro.core.queries import Query
from repro.core.sharing import build_basic_plan, default_split
from repro.graph.ops import checkpoint_counted, reverse_edges
from repro.harness.timing import StageTimer


def run_pathenum(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
) -> RunResult:
    """Answer every query with an independent PathEnum run."""
    timer = StageTimer()
    stats = EnumStats()
    if not queries:
        return RunResult(no_paths(spark), timer.seconds, stats, {"n_paths": 0})
    rev = reverse_edges(edges)
    per_query: list[DataFrame] = []
    n_paths = 0
    for q in queries:
        with timer.stage("build_index"):
            fwd_index, bwd_index = idx.bidirectional_index(
                spark, edges, rev, [q.s], [q.t], q.k
            )
            dist_from_s = idx.collect_dists(fwd_index)
            dist_to_t = idx.collect_dists(bwd_index)
        with timer.stage("enumeration"):
            plan = build_basic_plan([q], {q.qid: default_split(q)})
            allow = build_allow(spark, plan, dist_from_s, dist_to_t)
            paths = enumerate_nodes(spark, edges, rev, plan.nodes, allow, stats=stats)
            res, seen = checkpoint_counted(assemble(spark, paths, plan.plans))
            n_paths += seen["rows"]
        per_query.append(res)
    results = per_query[0]
    for r in per_query[1:]:
        results = results.unionByName(r)
    return RunResult(results, timer.seconds, stats, {"n_paths": n_paths})
