"""BasicEnum / BasicEnum⁺ (Algorithm 1): the batch baseline.

One shared distance index is built by multi-source BFS from all sources and
all targets; every query is then answered independently by PathEnum's
index-pruned bidirectional search — all queries ride the same batched Spark
pipeline (one row-space keyed by query), but no intermediate results are
shared across queries. ``optimized=True`` is BasicEnum⁺'s cost-based search
order (forward/backward budget split from index frontier counts).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core import index as idx
from repro.core.enumeration import EnumStats, assemble, enumerate_nodes, no_paths
from repro.core.queries import Query
from repro.core.sharing import build_basic_plan, default_split, optimized_split
from repro.graph.ops import checkpoint_counted, reverse_edges
from repro.harness.timing import StageTimer


@dataclass
class RunResult:
    """Output of one algorithm run: final paths + per-stage seconds + work."""

    results: DataFrame  # (qid, path array<long>)
    timings: dict[str, float]
    stats: EnumStats
    extras: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())


def compute_splits(
    queries: list[Query],
    optimized: bool,
    fwd_index: DataFrame,
    bwd_index: DataFrame,
) -> dict[int, int]:
    """Per-query forward budget ``a``: fixed ⌈k/2⌉, or cost-based (⁺)."""
    if not optimized:
        return {q.qid: default_split(q) for q in queries}
    fc = idx.index_counts(fwd_index)
    bc = idx.index_counts(bwd_index)
    return {q.qid: optimized_split(q, fc, bc) for q in queries}


def run_basic(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
    *,
    optimized: bool = False,
) -> RunResult:
    """Run Algorithm 1 over the batch; returns all HC-s-t paths per query."""
    timer = StageTimer()
    stats = EnumStats()
    if not queries:
        return RunResult(
            no_paths(spark), timer.seconds, stats, {"n_paths": 0, "n_nodes": 0}
        )
    rev = reverse_edges(edges)
    k_max = max(q.k for q in queries)
    with timer.stage("build_index"):
        fwd_index, bwd_index = idx.bidirectional_index(
            spark, edges, rev, [q.s for q in queries], [q.t for q in queries], k_max
        )
    with timer.stage("enumeration"):
        splits = compute_splits(queries, optimized, fwd_index, bwd_index)
        plan = build_basic_plan(queries, splits)
        paths = enumerate_nodes(
            spark, edges, rev, plan.nodes, plan.prune_pairs,
            fwd_index, bwd_index, stats=stats,
        )
        results, seen = checkpoint_counted(assemble(spark, paths, plan.plans))
    return RunResult(
        results, timer.seconds, stats,
        {"n_paths": seen["rows"], "n_nodes": len(plan.nodes)},
    )
