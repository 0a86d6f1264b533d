"""BatchEnum / BatchEnum⁺ (Algorithm 4): the paper's contribution.

Pipeline (Alg 4 lines 1-16):

1. **BuildIndex** — the edge table collected once, then the shared BFS
   index on the driver (as BasicEnum); Alg 3 reads the same adjacency.
2. **ClusterQuery** — pairwise μ from the index's Γ reach sets, read from
   the ``{root: {v: dist}}`` maps collected to the driver once (Alg 3, the
   ⁺ split counts and the pruned adjacency use the same maps), then
   driver-side hierarchical clustering at threshold γ.
3. **IdentifySubquery** — per cluster, DetectCommonQuery on G and G_r builds
   the query sharing graph Ψ (``repro.core.sharing``).
4. **Enumeration** — as BasicEnum: the pruned adjacency, one
   ``enumerate_nodes`` call and ⊕. All of Ψ's HC-s nodes expand in one
   batched Spark hop loop whose searches *stop* at provider roots (the
   pruned adjacency's ``provider`` column), and ``enumerate_nodes`` returns
   each node's R with every stopped prefix concatenated with its provider's
   paths (one lazy broadcast join: Ψ is one link deep, so a provider's
   paths are all open). Every query's forward and backward halves are then
   ⊕-concatenated in one broadcast hash join, whose checkpoint also runs
   the attach's broadcast: the attach plans no Spark query of its own.

``optimized=True`` (BatchEnum⁺) applies the cost-based search-order split
before detection, so sharing operates on the optimized budgets.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core import enumeration
from repro.core import index as idx
from repro.core.basic_enum import RunResult, compute_splits
from repro.core.clustering import cluster_queries
from repro.core.enumeration import EnumStats, assemble, enumerate_nodes
from repro.core.queries import Query, check_unique_qids
from repro.core.sharing import align_splits_per_cluster, build_shared_plan
from repro.core.similarity import batch_similarity, pairwise_mu
from repro.graph.ops import checkpoint_counted, collect_adjacency, reverse_adjacency
from repro.harness.timing import StageTimer


def run_batch(
    spark: SparkSession,
    edges: DataFrame,
    queries: list[Query],
    *,
    gamma: float = 0.5,
    optimized: bool = False,
) -> RunResult:
    """Run Algorithm 4 over the batch; returns all HC-s-t paths per query."""
    check_unique_qids(queries)
    timer = StageTimer()
    stats = EnumStats()
    k_max = max((q.k for q in queries), default=0)

    with timer.stage("build_index"):
        # one edge collect feeds both the index BFS and Alg 3's detection
        adj = collect_adjacency(edges)
        radj = reverse_adjacency(adj)
        fwd_index, bwd_index = idx.bidirectional_index(
            spark, adj, radj, [q.s for q in queries], [q.t for q in queries], k_max
        )

    with timer.stage("cluster_query"):
        dist_from_s = idx.collect_dists(fwd_index)
        dist_to_t = idx.collect_dists(bwd_index)
        mu = pairwise_mu(dist_from_s, dist_to_t, queries)
        clusters = cluster_queries(mu, [q.qid for q in queries], gamma)
        mu_q = batch_similarity(mu, len(queries))

    with timer.stage("identify_subquery"):
        splits = compute_splits(queries, optimized, dist_from_s, dist_to_t)
        if optimized:
            splits = align_splits_per_cluster(queries, clusters, splits)
        plan = build_shared_plan(
            queries, clusters, splits, adj, radj, dist_from_s, dist_to_t
        )

    with timer.stage("enumeration"):
        # looked up on its module, where perfbench's trace wraps it
        padj = enumeration.build_allow(spark, plan, adj, radj, dist_from_s, dist_to_t)
        paths = enumerate_nodes(spark, plan.nodes, padj, stats=stats)
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
