"""BatchEnum / BatchEnum⁺ (Algorithm 4): the paper's contribution.

Pipeline (Alg 4 lines 1-16):

1. **BuildIndex** — shared multi-source BFS index (same as BasicEnum).
2. **ClusterQuery** — pairwise μ from the index's Γ reach sets (one Spark
   self-join), then driver-side hierarchical clustering at threshold γ.
3. **IdentifySubquery** — per cluster, DetectCommonQuery on G and G_r builds
   the query sharing graph Ψ (``repro.core.sharing``).
4. **Enumeration** — Ψ's HC-s nodes are processed level-by-level in
   topological order; each level is one batched Spark enumeration whose
   searches *stop* at provider roots and concatenate the provider's cached
   paths from ``R`` (the providers' rows of earlier levels' checkpoints).
   Finally every query's forward and backward HC-s results are
   ⊕-concatenated.

``optimized=True`` (BatchEnum⁺) applies the cost-based search-order split
before detection, so sharing operates on the optimized budgets.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import enumeration
from repro.core import index as idx
from repro.core.basic_enum import RunResult, compute_splits
from repro.core.clustering import cluster_queries
from repro.core.enumeration import EnumStats, assemble, enumerate_nodes, no_paths
from repro.core.queries import Query
from repro.core.sharing import align_splits_per_cluster, build_shared_plan
from repro.core.similarity import batch_similarity, pairwise_mu
from repro.graph.ops import (
    checkpoint_counted,
    collect_adjacency,
    reverse_adjacency,
    reverse_edges,
)
from repro.harness.timing import StageTimer


def run_batch(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
    *,
    gamma: float = 0.5,
    optimized: bool = False,
    max_depth: int = 4,
) -> RunResult:
    """Run Algorithm 4 over the batch; returns all HC-s-t paths per query.

    ``max_depth`` caps Ψ's provider-chain length (= sequential enumeration
    levels); see ``repro.core.sharing`` for the rationale.
    """
    timer = StageTimer()
    stats = EnumStats()
    if not queries:
        return RunResult(
            no_paths(spark), timer.seconds, stats,
            {"n_paths": 0, "n_nodes": 0, "n_shared_edges": 0, "n_clusters": 0,
             "n_levels": 0, "mu_q": 0.0},
        )
    rev = reverse_edges(edges)
    k_max = max(q.k for q in queries)

    with timer.stage("build_index"):
        fwd_index, bwd_index = idx.bidirectional_index(
            spark, edges, rev, [q.s for q in queries], [q.t for q in queries], k_max
        )

    with timer.stage("cluster_query"):
        mu = pairwise_mu(fwd_index, bwd_index, queries)
        clusters = cluster_queries(mu, [q.qid for q in queries], gamma)
        mu_q = batch_similarity(mu, len(queries))

    with timer.stage("identify_subquery"):
        adj = collect_adjacency(edges)
        radj = reverse_adjacency(adj)
        dist_from_s = idx.collect_dists(fwd_index)
        dist_to_t = idx.collect_dists(bwd_index)
        splits = compute_splits(queries, optimized, fwd_index, bwd_index)
        if optimized:
            splits = align_splits_per_cluster(queries, clusters, splits)
        plan = build_shared_plan(
            queries, clusters, splits, adj, radj, dist_from_s, dist_to_t,
            max_depth=max_depth,
        )

    with timer.stage("enumeration"):
        # looked up on its module, where perfbench's trace wraps it
        allow = enumeration.build_allow(
            spark, plan.nodes, plan.prune_pairs, fwd_index, bwd_index
        )
        # Every level is checkpointed once, by ``enumerate_nodes``. The cache
        # R (Alg 4 lines 9-10) is the providers' rows of those checkpoints,
        # and ⊕ reads the union of all of them, so no level is computed twice.
        provider_nids = {e.provider for e in plan.edges}
        cache = None
        paths = None
        for level in plan.topo_levels:
            level_nids = {n.nid for n in level}
            level_stops = [s for s in plan.stops if s.nid in level_nids]
            res = enumerate_nodes(
                spark, edges, rev, level, plan.prune_pairs,
                fwd_index, bwd_index,
                stops=level_stops, cache=cache, stats=stats, allow=allow,
            )
            paths = res if paths is None else paths.unionByName(res)
            prov = sorted(level_nids & provider_nids)
            if prov:
                part = res.where(F.col("nid").isin(prov))
                cache = part if cache is None else cache.unionByName(part)
        results, seen = checkpoint_counted(assemble(spark, paths, plan.plans))

    return RunResult(
        results, timer.seconds, stats,
        {
            "n_paths": seen["rows"],
            "n_nodes": len(plan.nodes),
            "n_shared_edges": len(plan.edges),
            "n_clusters": len(clusters),
            "n_levels": len(plan.topo_levels),
            "mu_q": mu_q,
        },
    )
