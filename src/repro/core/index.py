"""Distance index via batched multi-source BFS (Alg 1 lines 1-2).

The paper builds, for the whole batch, ``dist_G(s, v)`` for every source
``s ∈ S`` and ``dist_{G_r}(t, v)`` for every target ``t ∈ T`` using the
multi-source BFS of [36]. Here the same index is one DataFrame
``(root, v, dist)`` produced by a level-synchronous frontier join keyed by
``root`` — all roots advance in the same Spark job per level, which is the
dataflow equivalent of MS-BFS's batched traversal.

The index is small (≤ |roots| × k-hop-reach rows) and is broadcast into the
enumeration joins, which is where the "shared index" of BasicEnum/BatchEnum
pays off.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.ops import checkpoint_counted, local_frame


def _tagged_bfs(
    spark: SparkSession,
    tagged_edges: DataFrame,
    roots: list[tuple[str, int]],
    k_max: int,
) -> DataFrame:
    """``(tag, root, v, dist)`` for the distinct ``(tag, root)`` seeds
    ``roots``, each walking only the ``tagged_edges`` rows (``tag, src,
    dst``) of its own tag.

    One Spark job per level: the level's new rows are anti-joined against
    the running ``visited`` checkpoint (broadcast — it is index-sized) and
    checkpointed together with it; the same job counts the rows, and the
    loop stops at the first level that adds none. The edge table is
    broadcast into every frontier join: the frontier is the small, shuffling
    side at our scale, and a map-side join removes per-level shuffle
    overhead (DESIGN.md §2).
    """
    edges_b = F.broadcast(tagged_edges)
    visited = local_frame(
        spark, [(tag, r, r, 0) for tag, r in roots],
        "tag string, root long, v long, dist int",
    ).localCheckpoint(eager=True)
    frontier = visited
    size = len(roots)
    for depth in range(1, k_max + 1):
        nxt = (
            frontier.join(
                edges_b,
                (frontier["tag"] == edges_b["tag"]) & (frontier["v"] == edges_b["src"]),
            )
            .select(frontier["tag"], "root", F.col("dst").alias("v"))
            .distinct()
            .join(
                F.broadcast(visited.select("tag", "root", "v")),
                ["tag", "root", "v"],
                "left_anti",
            )
            .withColumn("dist", F.lit(depth))
        )
        visited, seen = checkpoint_counted(visited.unionByName(nxt))
        if seen["rows"] == size:
            break
        size = seen["rows"]
        frontier = visited.where(F.col("dist") == depth)
    return visited


def multi_source_bfs(
    spark: SparkSession,
    edges: DataFrame,
    roots: list[int],
    k_max: int,
) -> DataFrame:
    """``(root, v, dist)`` for all ``v`` with ``dist(root, v) ≤ k_max``.

    Distances are hop counts on ``edges``; pass the reversed edge frame to
    obtain distances on ``G_r``. The result is materialized
    (``localCheckpoint``) so callers can join it repeatedly without
    re-running the BFS lineage.
    """
    roots = sorted(set(roots))
    if not roots:
        return spark.createDataFrame([], "root long, v long, dist int")
    tagged = edges.withColumn("tag", F.lit("F"))
    return _tagged_bfs(spark, tagged, [("F", r) for r in roots], k_max).drop("tag")


def bidirectional_index(
    spark: SparkSession,
    edges: DataFrame,
    edges_rev: DataFrame,
    s_roots: list[int],
    t_roots: list[int],
    k_max: int,
) -> tuple[DataFrame, DataFrame]:
    """Both index halves — ``dist_G(s, ·)`` and ``dist_{G_r}(t, ·)`` — in one
    tagged level-synchronous loop (one Spark job per hop for both
    directions), exactly as BasicEnum/BatchEnum build their shared index
    from S and T together (Alg 1/4 lines 1-2)."""
    tagged = edges.withColumn("tag", F.lit("F")).unionByName(
        edges_rev.withColumn("tag", F.lit("B"))
    )
    roots = [("F", r) for r in sorted(set(s_roots))] + [
        ("B", r) for r in sorted(set(t_roots))
    ]
    allv = _tagged_bfs(spark, tagged, roots, k_max)
    fwd = allv.where(F.col("tag") == "F").drop("tag")
    bwd = allv.where(F.col("tag") == "B").drop("tag")
    return fwd, bwd


def index_counts(index: DataFrame) -> dict[int, dict[int, int]]:
    """Per-root frontier sizes ``{root: {dist: #vertices}}``.

    Feeds the ``⁺`` variants' cost-based forward/backward budget split
    (DESIGN.md §2, "optimized search order").
    """
    pdf = index.groupBy("root", "dist").agg(F.count("*").alias("n")).toPandas()
    out: dict[int, dict[int, int]] = {}
    for root, dist, n in zip(pdf["root"], pdf["dist"], pdf["n"]):
        out.setdefault(int(root), {})[int(dist)] = int(n)
    return out


def collect_dists(index: DataFrame) -> dict[int, dict[int, int]]:
    """Driver-side ``{root: {v: dist}}`` — BatchEnum's Γ sets (μ) and Alg 3's
    detection wave both read it."""
    pdf = index.toPandas()
    out: dict[int, dict[int, int]] = {}
    for root, v, dist in zip(pdf["root"], pdf["v"], pdf["dist"]):
        out.setdefault(int(root), {})[int(v)] = int(dist)
    return out
