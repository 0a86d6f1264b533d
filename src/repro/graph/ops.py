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
    starts a Python worker on every scan (DESIGN.md §2). An empty pandas
    frame takes that Python path too, so an empty ``rows`` is a zero-row
    range with one typed null column per field.
    """
    fields = [field.split(None, 1) for field in schema.split(",")]
    if not rows:
        return spark.range(0).select(
            *(F.lit(None).cast(dtype).alias(name) for name, dtype in fields)
        )
    columns = [name for name, _ in fields]
    return spark.createDataFrame(pd.DataFrame(rows, columns=columns), schema)


def checkpoint_counted(df: DataFrame, **aggs: Column) -> tuple[DataFrame, dict]:
    """``df.localCheckpoint(eager=True)`` with its row count (``"rows"``) and
    the aggregates ``aggs`` (name → column expression), all computed by the
    checkpoint's own Spark job through an ``Observation``, so counting costs
    no job of its own."""
    obs = Observation()
    exprs = [F.count(F.lit(1)).alias("rows")] + [e.alias(n) for n, e in aggs.items()]
    return df.observe(obs, *exprs).localCheckpoint(eager=True), obs.get


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
    the distance index BFS, Alg 3 detection) — these are metadata-sized
    relative to enumeration, per DESIGN.md §2. Neighbour lists are sorted
    for determinism.
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
