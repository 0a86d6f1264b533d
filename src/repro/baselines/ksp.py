"""Adapted k-shortest-path baselines for Exp-6: DkSP [34] and OnePass [35].

The paper adapts both to HC-s-t path enumeration "by ignoring their
similarity constraint and keeping generating the path results until reaching
the hop constraint". What remains after that adaptation is an enumerator
*without the HC-specific distance-index pruning* — which is precisely the
deficiency the paper measures (two orders of magnitude slower, Fig 12).
Accordingly:

* **OnePass** — single forward pass from ``s`` keeping every partial simple
  path up to ``k`` hops (its label-correcting expansion), emitting paths on
  arrival at ``t``; no pruning beyond simplicity and the hop budget.
* **DkSP** — route-planning style bidirectional variant: unpruned forward
  and backward half-searches joined at the meeting vertex.

Both run over the same batched Spark pipeline as BasicEnum (a charitable
adaptation — per-query sequential runs would only be slower).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.basic_enum import RunResult
from repro.core.enumeration import EnumStats, assemble, enumerate_nodes
from repro.core.queries import Query
from repro.core.sharing import build_basic_plan, default_split
from repro.graph.ops import checkpoint_counted, reverse_edges
from repro.harness.timing import StageTimer


def _run_unpruned(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
    splits: dict[int, int],
) -> RunResult:
    timer = StageTimer()
    stats = EnumStats()
    rev = reverse_edges(edges)
    with timer.stage("enumeration"):
        plan = build_basic_plan(queries, splits)
        plan.prune_pairs = []  # the adaptation: no HC-specific index pruning
        paths = enumerate_nodes(
            spark, edges, rev, plan.nodes, plan.prune_pairs,
            _empty_index(spark), _empty_index(spark),
            stats=stats,
        )
        results, seen = checkpoint_counted(assemble(spark, paths, plan.plans))
    return RunResult(results, timer.seconds, stats, {"n_paths": seen["rows"]})


def _empty_index(spark: SparkSession) -> DataFrame:
    return spark.createDataFrame([], "root long, v long, dist int")


def run_onepass(
    spark: SparkSession, edges: DataFrame, queries: list[Query]
) -> RunResult:
    """OnePass adaptation: forward-only unpruned expansion (a = k)."""
    return _run_unpruned(spark, edges, queries, {q.qid: q.k for q in queries})


def run_dksp(
    spark: SparkSession, edges: DataFrame, queries: list[Query]
) -> RunResult:
    """DkSP adaptation: bidirectional unpruned expansion (a = ⌈k/2⌉)."""
    return _run_unpruned(
        spark, edges, queries, {q.qid: default_split(q) for q in queries}
    )
