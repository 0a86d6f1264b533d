"""Graph-level DataFrame operations shared by all algorithms."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F


def local_frame(spark: SparkSession, rows: list[tuple], schema: str) -> DataFrame:
    """A small driver-built table as a JVM-local relation.

    ``schema`` is a DDL string (``"nid long, side string"``). Built from
    pandas through Arrow, the table plans as a ``LocalTableScan``; the same
    rows passed as a Python list would plan as a scan of a Python RDD, which
    starts a Python worker on every scan (DESIGN.md §2). An empty ``rows``
    still falls back to that slow path, so hot-path callers avoid it.
    """
    columns = [field.split()[0] for field in schema.split(",")]
    return spark.createDataFrame(pd.DataFrame(rows, columns=columns), schema)


def checkpoint_counted(df: DataFrame, **aggs: Column) -> tuple[DataFrame, dict]:
    """``df.localCheckpoint(eager=True)`` with its row count (``"rows"``) and
    the aggregates ``aggs`` (name → column expression), all computed by the
    checkpoint's own Spark job through an ``Observation``, so counting costs
    no job of its own."""
    obs = Observation()
    exprs = [F.count(F.lit(1)).alias("rows")] + [e.alias(n) for n, e in aggs.items()]
    return df.observe(obs, *exprs).localCheckpoint(eager=True), obs.get


def reverse_edges(edges: DataFrame) -> DataFrame:
    """The reverse graph ``G_r``: every edge (u, v) becomes (v, u)."""
    return edges.select(
        F.col("dst").alias("src"), F.col("src").alias("dst")
    )


def sample_vertices(edges: DataFrame, pct: int) -> DataFrame:
    """Vertex-induced subgraph on a deterministic ``pct``% vertex sample.

    Used by Exp-5 (scalability): the paper samples 20%..100% of the two
    largest graphs. A vertex is kept iff ``hash(v) mod 100 < pct``; an edge
    is kept iff both endpoints are kept, matching vertex-induced sampling.
    """
    if not 0 < pct <= 100:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    if pct == 100:
        return edges
    keep = lambda c: F.pmod(F.xxhash64(F.col(c)), F.lit(100)) < pct  # noqa: E731
    return edges.where(keep("src") & keep("dst"))


def collect_adjacency(edges: DataFrame) -> dict[int, list[int]]:
    """Out-adjacency as a driver-side dict ``{u: [v, ...]}``.

    Used by the driver-resident pieces (query generation over random walks,
    Alg 3 detection) — these are metadata-sized relative to enumeration, per
    DESIGN.md §2. Neighbour lists are sorted for determinism.
    """
    pdf: pd.DataFrame = edges.toPandas()
    adj: dict[int, list[int]] = {}
    for u, v in zip(pdf["src"].tolist(), pdf["dst"].tolist()):
        adj.setdefault(u, []).append(v)
    return {u: sorted(vs) for u, vs in adj.items()}


def reverse_adjacency(adj: dict[int, list[int]]) -> dict[int, list[int]]:
    """Driver-side reverse of :func:`collect_adjacency` output."""
    radj: dict[int, list[int]] = {}
    for u, vs in adj.items():
        for v in vs:
            radj.setdefault(v, []).append(u)
    return {u: sorted(vs) for u, vs in radj.items()}


def vertices(edges: DataFrame) -> DataFrame:
    """Distinct vertices incident to at least one edge, column ``v``."""
    return (
        edges.select(F.col("src").alias("v"))
        .unionAll(edges.select(F.col("dst").alias("v")))
        .distinct()
    )
