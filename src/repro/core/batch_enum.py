"""BatchEnum / BatchEnum⁺ (Algorithm 4): the paper's contribution.

Pipeline (Alg 4 lines 1-16):

1. **BuildIndex** — shared multi-source BFS index (same as BasicEnum).
2. **ClusterQuery** — pairwise μ from the index's Γ reach sets, read from
   the ``{root: {v: dist}}`` maps collected to the driver once (Alg 3 uses
   the same maps), then driver-side hierarchical clustering at threshold γ.
3. **IdentifySubquery** — per cluster, DetectCommonQuery on G and G_r builds
   the query sharing graph Ψ (``repro.core.sharing``).
4. **Enumeration** — all of Ψ's HC-s nodes expand in one batched Spark hop
   loop whose searches *stop* at provider roots. Then, level by level in
   topological order, each stopped prefix concatenates its provider's
   paths from ``R`` (open rows plus earlier levels' attachments). Finally
   every query's forward and backward HC-s results are ⊕-concatenated.

``optimized=True`` (BatchEnum⁺) applies the cost-based search-order split
before detection, so sharing operates on the optimized budgets.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core import enumeration
from repro.core import index as idx
from repro.core.basic_enum import RunResult, compute_splits
from repro.core.clustering import cluster_queries
from repro.core.enumeration import (
    EnumStats,
    assemble,
    attach_cached,
    enumerate_nodes,
    no_paths,
)
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

    ``max_depth`` caps Ψ's provider-chain length (= topological levels, each
    past the first one sequential attach join); see ``repro.core.sharing``
    for the rationale.
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
        dist_from_s = idx.collect_dists(fwd_index)
        dist_to_t = idx.collect_dists(bwd_index)
        mu = pairwise_mu(dist_from_s, dist_to_t, queries)
        clusters = cluster_queries(mu, [q.qid for q in queries], gamma)
        mu_q = batch_similarity(mu, len(queries))

    with timer.stage("identify_subquery"):
        adj = collect_adjacency(edges)
        radj = reverse_adjacency(adj)
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
        # Expansion never reads the cache R: a consumer's prefix closes at
        # the provider's root whatever R holds. So all of Ψ expands in one
        # hop loop, and only the concatenation runs in topological order.
        expanded = enumerate_nodes(
            spark, edges, rev, plan.nodes, plan.prune_pairs,
            fwd_index, bwd_index, stops=plan.stops, stats=stats, allow=allow,
        )
        paths = attach_cached(expanded, plan.topo_levels, plan.stops, stats.closers)
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
