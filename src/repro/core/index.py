"""Distance index via batched multi-source BFS (Alg 1 lines 1-2).

The paper builds, for the whole batch, ``dist_G(s, v)`` for every source
``s ∈ S`` and ``dist_{G_r}(t, v)`` for every target ``t ∈ T`` using the
multi-source BFS of [36]. Here both halves come from one level-synchronous
frontier join keyed by ``(tag, root)`` (:func:`bidirectional_index`): all
roots of both directions advance in the same Spark job per level, which is
the dataflow equivalent of MS-BFS's batched traversal.

The index is small (≤ |roots| × k-hop-reach rows). :func:`collect_dists` is
the only reader of the index frames: it collects each half to the driver
once as ``{root: {v: dist}}``, and everything downstream derives from those
maps — Γ/μ, Alg 3 detection, the Lemma 3.1 allow table
(``enumeration.build_allow``) and the ``⁺`` split counts
(:func:`index_counts`).
"""
from __future__ import annotations

from collections import Counter

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.ops import checkpoint_counted, local_frame


def bidirectional_index(
    spark: SparkSession,
    edges: DataFrame,
    edges_rev: DataFrame,
    s_roots: list[int],
    t_roots: list[int],
    k_max: int,
) -> tuple[DataFrame, DataFrame]:
    """Both index halves — ``(root, v, dist)`` frames of ``dist_G(s, ·)``
    for the distinct ``s_roots`` and ``dist_{G_r}(t, ·)`` for the distinct
    ``t_roots``, up to ``k_max`` hops — in one tagged level-synchronous
    loop, exactly as BasicEnum/BatchEnum build their shared index from S and
    T together (Alg 1/4 lines 1-2).

    One Spark job per level for both directions: each ``(tag, root)`` seed
    walks only the edge rows of its own tag (``F`` on ``edges``, ``B`` on
    ``edges_rev``); the level's new rows are anti-joined against the running
    ``visited`` checkpoint (broadcast — it is index-sized) and checkpointed
    together with it; the same job counts the rows, and the loop stops at
    the first level that adds none. The edge table is broadcast into every
    frontier join: the frontier is the small, shuffling side at our scale,
    and a map-side join removes per-level shuffle overhead (DESIGN.md §2).
    """
    edges_b = F.broadcast(
        edges.withColumn("tag", F.lit("F")).unionByName(
            edges_rev.withColumn("tag", F.lit("B"))
        )
    )
    roots = [("F", r) for r in sorted(set(s_roots))] + [
        ("B", r) for r in sorted(set(t_roots))
    ]
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
    fwd = visited.where(F.col("tag") == "F").drop("tag")
    bwd = visited.where(F.col("tag") == "B").drop("tag")
    return fwd, bwd


def index_counts(dists: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Per-root frontier sizes ``{root: {dist: #vertices}}`` of collected
    index maps (:func:`collect_dists`).

    Feeds the ``⁺`` variants' cost-based forward/backward budget split
    (DESIGN.md §2, "optimized search order").
    """
    return {root: dict(Counter(reach.values())) for root, reach in dists.items()}


def collect_dists(index: DataFrame) -> dict[int, dict[int, int]]:
    """Driver-side ``{root: {v: dist}}`` of one index half: the form every
    consumer of the index reads (see the module docstring)."""
    pdf = index.toPandas()
    out: dict[int, dict[int, int]] = {}
    for root, v, dist in zip(pdf["root"], pdf["v"], pdf["dist"]):
        out.setdefault(int(root), {})[int(v)] = int(dist)
    return out
