"""BasicEnum / BasicEnum⁺ (Algorithm 1): the batch baseline.

The edge table is collected once and one shared distance index is built on
the driver by BFS from all sources and targets; every query is then answered
independently by PathEnum's index-pruned bidirectional search — all queries
ride the same batched Spark pipeline (one row-space keyed by query), but no
intermediate results are shared across queries. ``optimized=True`` is
BasicEnum⁺'s cost-based search order (forward/backward budget split from
index frontier counts).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core import enumeration
from repro.core import index as idx
from repro.core.enumeration import EnumStats, assemble, enumerate_nodes
from repro.core.index import DistMap, collect_dists
from repro.core.queries import Query, check_unique_qids
from repro.core.sharing import build_basic_plan, default_split, optimized_split
from repro.graph.ops import checkpoint_counted, collect_adjacency, reverse_adjacency
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
    dist_from_s: DistMap,
    dist_to_t: DistMap,
) -> dict[int, int]:
    """Per-query forward budget ``a``: fixed ⌈k/2⌉, or cost-based (⁺) from
    the frontier counts of the collected index maps."""
    if not optimized:
        return {q.qid: default_split(q) for q in queries}
    fc = idx.index_counts(dist_from_s)
    bc = idx.index_counts(dist_to_t)
    return {q.qid: optimized_split(q, fc, bc) for q in queries}


def run_basic(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
    *,
    optimized: bool = False,
) -> RunResult:
    """Run Algorithm 1 over the batch; returns all HC-s-t paths per query."""
    check_unique_qids(queries)
    timer = StageTimer()
    stats = EnumStats()
    k_max = max((q.k for q in queries), default=0)
    with timer.stage("build_index"):
        # collect_adjacency and collect_dists are imported by name, unlike
        # idx.bidirectional_index: perfbench's trace lists no ops or
        # index_collect layer for BasicEnum, so both are charged to run_basic
        adj = collect_adjacency(edges)
        radj = reverse_adjacency(adj)
        fwd_index, bwd_index = idx.bidirectional_index(
            spark, adj, radj,
            [q.s for q in queries], [q.t for q in queries], k_max,
        )
        dist_from_s = collect_dists(fwd_index)
        dist_to_t = collect_dists(bwd_index)
    with timer.stage("enumeration"):
        splits = compute_splits(queries, optimized, dist_from_s, dist_to_t)
        plan = build_basic_plan(queries, splits)
        # looked up on its module, where perfbench's trace wraps it
        padj = enumeration.build_allow(spark, plan, adj, radj, dist_from_s, dist_to_t)
        paths = enumerate_nodes(spark, plan.nodes, padj, stats=stats)
        results, seen = checkpoint_counted(assemble(spark, paths, plan.plans))
    return RunResult(
        results, timer.seconds, stats,
        {"n_paths": seen["rows"], "n_nodes": len(plan.nodes)},
    )
