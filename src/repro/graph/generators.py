"""Synthetic directed graphs standing in for the paper's real datasets.

The paper (Table I) evaluates on twelve real-world graphs from SNAP / LAW /
NetworkRepository, from Epinions (75K vertices, 508K edges) up to Friendster
(65M vertices, 1.81B edges). This container has no network access and a
single local Spark, so each dataset is replaced by a deterministic synthetic
power-law digraph whose *relative* size ordering, average degree and degree
skew mirror the original (see DESIGN.md §3). Vertices are ``int64`` ids in
``[0, n)``; edges are unique, self-loop free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for one synthetic dataset.

    ``n``: vertex count; ``m``: target edge count (achieved count is slightly
    lower after dedup); ``alpha_out``/``alpha_in``: zipf skew of out/in degree
    (higher = more skewed, bigger ``d_max``); ``seed``: RNG seed.
    """

    name: str
    n: int
    m: int
    alpha_out: float = 0.6
    alpha_in: float = 0.6
    seed: int = 7


# Scaled stand-ins for Table I, preserving relative |V|/|E| ordering and
# rough d_avg. Paper values (|V|, |E|, d_avg) in comments.
DATASETS: dict[str, GraphSpec] = {
    # tiny graphs for unit tests only (not part of Table I)
    "TINY": GraphSpec("TINY", 60, 240, seed=11),
    "SMALL": GraphSpec("SMALL", 300, 1500, seed=12),
    # Table I stand-ins
    "EP": GraphSpec("EP", 1_500, 10_000, 0.8, 0.8, 21),  # Epinions 75K/508K/13.4
    "SL": GraphSpec("SL", 1_640, 19_000, 0.8, 0.8, 22),  # Slashdot 82K/948K/21.2
    "BK": GraphSpec("BK", 8_300, 60_000, 1.0, 0.4, 23),  # Baidu-baike 416K/3M/5.0
    "WT": GraphSpec("WT", 10_000, 25_000, 0.7, 0.7, 24),  # WikiTalk 2M/5M/5.0
    "BS": GraphSpec("BS", 3_400, 37_000, 0.9, 0.9, 25),  # BerkStan 685K/7M/22.2
    "SK": GraphSpec("SK", 8_000, 52_000, 0.8, 0.8, 26),  # Skitter 1.6M/11M/13.1
    "UK": GraphSpec("UK", 1_300, 58_000, 0.3, 0.3, 27),  # Web-uk 130K/11.7M/181.2
    "DA": GraphSpec("DA", 1_700, 85_000, 0.8, 0.8, 28),  # Rec-dating 169K/17M/205.7
    "PO": GraphSpec("PO", 8_000, 150_000, 0.7, 0.7, 29),  # Pokec 1.6M/31M/37.5
    "LJ": GraphSpec("LJ", 20_000, 170_000, 0.7, 0.7, 30),  # LiveJournal 4M/69M/17.9
    "TW": GraphSpec("TW", 21_000, 730_000, 1.1, 0.5, 31),  # Twitter 42M/1.46B/70.5
    "FS": GraphSpec("FS", 32_500, 450_000, 0.5, 0.5, 32),  # Friendster 65M/1.81B/27.5
}

# Exp-3 defaults to this subset to bound wall-clock; pass other names to run all.
BENCH_DATASETS = ["EP", "SL", "WT", "BS"]


def powerlaw_edges(spec: GraphSpec) -> pd.DataFrame:
    """Generate the edge list of ``spec`` as a pandas DataFrame (src, dst).

    Endpoints are drawn from two independent zipf-like rank distributions
    over random vertex permutations (so hub ids are not correlated between
    the out- and in- side), then deduplicated and stripped of self-loops.
    Deterministic in ``spec.seed``.
    """
    g = np.random.default_rng(spec.seed)

    def ranks(alpha: float, perm_seed: int) -> np.ndarray:
        w = 1.0 / np.arange(1, spec.n + 1, dtype=np.float64) ** alpha
        w /= w.sum()
        draw = g.choice(spec.n, size=spec.m, p=w)
        perm = np.random.default_rng(perm_seed).permutation(spec.n)
        return perm[draw]

    src = ranks(spec.alpha_out, spec.seed + 1)
    dst = ranks(spec.alpha_in, spec.seed + 2)
    pdf = pd.DataFrame({"src": src.astype("int64"), "dst": dst.astype("int64")})
    pdf = pdf[pdf.src != pdf.dst].drop_duplicates(ignore_index=True)
    return pdf


def dataset(spark: SparkSession, name: str) -> DataFrame:
    """Edge DataFrame (src:int64, dst:int64) of a named synthetic dataset."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    return edges_from_pandas(spark, powerlaw_edges(DATASETS[name]))


def edges_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Create a canonical edges DataFrame from a pandas (src, dst) frame."""
    pdf = pdf[["src", "dst"]].astype("int64")
    return spark.createDataFrame(pdf)


def edges_from_list(spark: SparkSession, pairs: list[tuple[int, int]]) -> DataFrame:
    """Edges DataFrame from explicit (src, dst) pairs — for tests/examples."""
    pdf = pd.DataFrame(pairs, columns=["src", "dst"])
    return edges_from_pandas(spark, pdf)


def paper_example_edges(spark: SparkSession) -> DataFrame:
    """The 16-vertex graph of the paper's Fig. 1, reconstructed from the
    worked examples (Examples 2.1, 3.1, 4.1–4.3 and Figs. 2, 5, 6).

    Every path, pruning step and sharing decision the paper narrates is
    checked against this graph in the tests.
    """
    return edges_from_list(spark, PAPER_EXAMPLE_PAIRS)


# Edges recovered from the paper's running example:
#   q0 paths: (v0,v1,v7,v10,v12,v11), (v0,v4,v9,v3,v6,v11), (v0,v4,v9,v15,v6,v11)
#   q1 paths: (v2,v1,v7,v10,v12,v13), (v2,v4,v9,v3,v6,v13), (v2,v4,v9,v15,v6,v13)
#   Fig 2: dist to v14: v6=1, v3=2, v15=2, v9=3, v4=4; v8 unreachable to v14
#   Fig 5(a): from v1: (v1,v7,v10),(v1,v7,v8),(v1,v8); v5->v1
#   Fig 5(b) on Gr: v11->v12, v13->v12, v12->v10 (i.e. G: v12->v11, v12->v13,
#   v10->v12); Fig 6(a): v4 extends {v9}; v9 extends {v15,v8,v3}
PAPER_EXAMPLE_PAIRS: list[tuple[int, int]] = [
    (0, 1), (0, 4),
    (2, 1), (2, 4),
    (5, 1),
    (1, 7), (1, 8),
    (7, 10), (7, 8),
    (10, 12),
    (12, 11), (12, 13),
    (4, 9),
    (9, 3), (9, 15), (9, 8),
    (3, 6), (3, 15), (15, 6),
    (6, 11), (6, 13), (6, 14),
]


def graph_stats(edges: DataFrame) -> dict:
    """Table I statistics for an edge DataFrame.

    Returns ``{"V": n, "E": m, "d_avg": m/n, "d_max": max total degree}``.
    ``V`` counts vertices incident to at least one edge (synthetic ids are
    dense so this ≈ n); ``d_max`` is the max of in+out degree, matching the
    magnitude-of-hubs role it plays in Table I.
    """
    m = edges.count()
    deg = (
        edges.select(F.col("src").alias("v"))
        .unionAll(edges.select(F.col("dst").alias("v")))
        .groupBy("v")
        .agg(F.count("*").alias("d"))
    )
    row = deg.agg(
        F.count("*").alias("V"), F.max("d").alias("d_max")
    ).collect()[0]
    return {
        "V": int(row["V"]),
        "E": int(m),
        "d_avg": round(m / max(1, row["V"]), 1),
        "d_max": int(row["d_max"]),
    }
