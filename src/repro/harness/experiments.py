"""Experiment runners — one per table of the paper's evaluation section.

Each function returns a tidy ``pandas.DataFrame`` whose rows are the data
points of the corresponding figure/table (DESIGN.md §4 maps them). Every
runner reports both wall-clock seconds and *work units* (rows produced by
the enumeration's expansion joins): on the paper's testbed (native Rust,
20-core Xeon) wall-clock tracks work directly, whereas local-mode Spark
adds per-job overhead that dominates at small scale — work units are the
hardware-neutral quantity the sharing optimization reduces (DESIGN.md §3).
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.ksp import run_dksp, run_onepass
from repro.core.basic_enum import RunResult, run_basic
from repro.core.batch_enum import run_batch
from repro.core.pathenum import run_pathenum
from repro.core.queries import gen_queries
from repro.graph.generators import BENCH_DATASETS, DATASETS, dataset, graph_stats
from repro.graph.ops import collect_adjacency, sample_vertices

DEFAULT_GAMMA = 0.5  # the paper's default


def algo_runner(name: str, gamma: float = DEFAULT_GAMMA) -> Callable:
    """Dispatch an algorithm by its paper name."""
    return {
        "PathEnum": run_pathenum,
        "BasicEnum": run_basic,
        "BasicEnum+": partial(run_basic, optimized=True),
        "BatchEnum": partial(run_batch, gamma=gamma),
        "BatchEnum+": partial(run_batch, gamma=gamma, optimized=True),
        "DkSP": run_dksp,
        "OnePass": run_onepass,
    }[name]


def _row(ds: str, algo: str, rr: RunResult, **extra) -> dict:
    return {
        "dataset": ds,
        "algo": algo,
        "seconds": round(rr.total_seconds, 2),
        "work": rr.stats.expanded_rows,
        "n_paths": rr.extras.get("n_paths"),
        **extra,
    }


def table1_datasets(spark: SparkSession, names: Iterable[str] | None = None) -> pd.DataFrame:
    """Table I: |V|, |E|, d_avg, d_max of every (synthetic stand-in) dataset."""
    names = list(names or [n for n in DATASETS if n not in ("TINY", "SMALL")])
    rows = []
    for name in names:
        st = graph_stats(dataset(spark, name))
        rows.append({"name": name, **st})
    return pd.DataFrame(rows)


def _load(spark: SparkSession, name: str) -> DataFrame:
    return dataset(spark, name).cache()


def exp1_similarity(
    spark: SparkSession,
    datasets: Iterable[str] = ("EP",),
    *,
    n_queries: int = 20,
    shares: Iterable[float] = (0.0, 0.3, 0.6, 0.9),
    k_range: tuple[int, int] = (4, 6),
    min_dist: int = 2,
    gamma: float = DEFAULT_GAMMA,
    algos: Iterable[str] = ("PathEnum", "BasicEnum", "BasicEnum+", "BatchEnum", "BatchEnum+"),
    seed: int = 0,
) -> pd.DataFrame:
    """Exp-1 / Fig 7: processing time & speedup vs batch similarity μ_Q.

    The achieved μ_Q is measured by BatchEnum and reported per share level;
    ``speedup_limit`` is the paper's 1/(1−μ_Q) bound.
    """
    rows = []
    for ds in datasets:
        edges = _load(spark, ds)
        adj = collect_adjacency(edges)
        for share in shares:
            queries = gen_queries(adj, n_queries, k_range=k_range, share=share, min_dist=min_dist, seed=seed)
            mu_q = None
            for algo in algos:
                rr = algo_runner(algo, gamma)(spark, edges, queries)
                if "mu_q" in rr.extras:
                    mu_q = rr.extras["mu_q"]
                rows.append(_row(ds, algo, rr, share=share))
            for r in rows:
                if r["dataset"] == ds and r["share"] == share and mu_q is not None:
                    r["mu_q"] = round(mu_q, 3)
                    r["speedup_limit"] = round(1.0 / max(1e-9, 1.0 - mu_q), 2)
        edges.unpersist()
    return pd.DataFrame(rows)


def exp2_query_set_size(
    spark: SparkSession,
    datasets: Iterable[str] = ("EP",),
    *,
    sizes: Iterable[int] = (10, 20, 30),
    k_range: tuple[int, int] = (4, 6),
    share: float = 0.5,
    min_dist: int = 2,
    gamma: float = DEFAULT_GAMMA,
    algos: Iterable[str] = ("PathEnum", "BasicEnum", "BasicEnum+", "BatchEnum", "BatchEnum+"),
    seed: int = 0,
) -> pd.DataFrame:
    """Exp-2 / Fig 8: processing time vs query-set size |Q| (paper: 100→500,
    scaled here; see EXPERIMENTS.md)."""
    rows = []
    for ds in datasets:
        edges = _load(spark, ds)
        adj = collect_adjacency(edges)
        for n in sizes:
            queries = gen_queries(adj, n, k_range=k_range, share=share, min_dist=min_dist, seed=seed)
            for algo in algos:
                rr = algo_runner(algo, gamma)(spark, edges, queries)
                rows.append(_row(ds, algo, rr, n_queries=n))
        edges.unpersist()
    return pd.DataFrame(rows)


def exp3_decomposition(
    spark: SparkSession,
    datasets: Iterable[str] = BENCH_DATASETS,
    *,
    n_queries: int = 20,
    k_range: tuple[int, int] = (4, 6),
    share: float = 0.5,
    min_dist: int = 2,
    gamma: float = DEFAULT_GAMMA,
    seed: int = 0,
) -> pd.DataFrame:
    """Exp-3 / Fig 9: BatchEnum⁺ per-stage time decomposition."""
    rows = []
    for ds in datasets:
        edges = _load(spark, ds)
        adj = collect_adjacency(edges)
        queries = gen_queries(adj, n_queries, k_range=k_range, share=share, min_dist=min_dist, seed=seed)
        rr = run_batch(spark, edges, queries, gamma=gamma, optimized=True)
        row = {"dataset": ds}
        for stage in ("build_index", "cluster_query", "identify_subquery", "enumeration"):
            row[stage] = round(rr.timings.get(stage, 0.0), 2)
        row["total"] = round(rr.total_seconds, 2)
        rows.append(row)
        edges.unpersist()
    return pd.DataFrame(rows)


def exp4_gamma(
    spark: SparkSession,
    datasets: Iterable[str] = ("EP",),
    *,
    n_queries: int = 20,
    gammas: Iterable[float] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
    k_range: tuple[int, int] = (4, 6),
    share: float = 0.6,
    min_dist: int = 2,
    seed: int = 0,
) -> pd.DataFrame:
    """Exp-4 / Fig 10: BatchEnum⁺ processing time vs clustering threshold γ."""
    rows = []
    for ds in datasets:
        edges = _load(spark, ds)
        adj = collect_adjacency(edges)
        queries = gen_queries(adj, n_queries, k_range=k_range, share=share, min_dist=min_dist, seed=seed)
        for gamma in gammas:
            rr = run_batch(spark, edges, queries, gamma=gamma, optimized=True)
            rows.append(
                _row(ds, "BatchEnum+", rr, gamma=gamma,
                     n_clusters=rr.extras["n_clusters"],
                     n_shared=rr.extras["n_shared_edges"])
            )
        edges.unpersist()
    return pd.DataFrame(rows)


def exp5_scalability(
    spark: SparkSession,
    datasets: Iterable[str] = ("TW", "FS"),
    *,
    pcts: Iterable[int] = (20, 40, 60, 80, 100),
    n_queries: int = 15,
    k_range: tuple[int, int] = (4, 6),
    share: float = 0.5,
    min_dist: int = 2,
    gamma: float = DEFAULT_GAMMA,
    algos: Iterable[str] = ("BasicEnum", "BasicEnum+", "BatchEnum", "BatchEnum+"),
    seed: int = 0,
) -> pd.DataFrame:
    """Exp-5 / Fig 11: vertex-sampled subgraphs of the two largest datasets."""
    rows = []
    for ds in datasets:
        full = _load(spark, ds)
        for pct in pcts:
            edges = sample_vertices(full, pct).cache()
            adj = collect_adjacency(edges)
            if not any(adj.values()):
                continue
            queries = gen_queries(adj, n_queries, k_range=k_range, share=share, min_dist=min_dist, seed=seed)
            for algo in algos:
                rr = algo_runner(algo, gamma)(spark, edges, queries)
                rows.append(_row(ds, algo, rr, pct=pct, n_edges=edges.count()))
            edges.unpersist()
        full.unpersist()
    return pd.DataFrame(rows)


def exp6_ksp(
    spark: SparkSession,
    datasets: Iterable[str] = ("EP",),
    *,
    n_queries: int = 10,
    ks: Iterable[int] = (3, 4, 5),
    share: float = 0.0,
    gamma: float = DEFAULT_GAMMA,
    algos: Iterable[str] = ("BatchEnum+", "DkSP", "OnePass"),
    seed: int = 0,
) -> pd.DataFrame:
    """Exp-6 / Fig 12: against the adapted k-shortest-path algorithms."""
    rows = []
    for ds in datasets:
        edges = _load(spark, ds)
        adj = collect_adjacency(edges)
        for k in ks:
            queries = gen_queries(adj, n_queries, k_range=(k, k), share=share, seed=seed)
            for algo in algos:
                rr = algo_runner(algo, gamma)(spark, edges, queries)
                rows.append(_row(ds, algo, rr, k=k))
        edges.unpersist()
    return pd.DataFrame(rows)


def exp7_path_counts(
    spark: SparkSession,
    datasets: Iterable[str] = ("EP",),
    *,
    n_queries: int = 15,
    ks: Iterable[int] = (3, 4, 5, 6),
    gamma: float = DEFAULT_GAMMA,
    seed: int = 0,
) -> pd.DataFrame:
    """Exp-7 / Fig 13: average number of HC-s-t paths per query vs k."""
    rows = []
    for ds in datasets:
        edges = _load(spark, ds)
        adj = collect_adjacency(edges)
        for k in ks:
            queries = gen_queries(adj, n_queries, k_range=(k, k), seed=seed)
            rr = run_batch(spark, edges, queries, gamma=gamma, optimized=True)
            rows.append(
                {
                    "dataset": ds,
                    "k": k,
                    "avg_paths": round(rr.extras["n_paths"] / len(queries), 2),
                    "total_paths": rr.extras["n_paths"],
                }
            )
        edges.unpersist()
    return pd.DataFrame(rows)


# The tables of ``results/``: name -> (title, runner, keyword arguments).
# ``python -m repro.harness <name>`` regenerates ``results/<name>.md``.
TABLES: dict[str, tuple[str, Callable[..., pd.DataFrame], dict]] = {
    "table1": (
        "Table I — dataset statistics (synthetic stand-ins)", table1_datasets, {},
    ),
    # WT is the sparse stand-in: its k-hop neighbourhoods are local, so the
    # share knob actually sweeps μ_Q instead of saturating near 1 as it
    # does on small dense graphs.
    "exp1_similarity": (
        "Exp-1 — time/work vs batch similarity (WT)", exp1_similarity,
        dict(datasets=["WT"], n_queries=12, shares=[0.0, 0.5, 0.9],
             k_range=(4, 6), min_dist=3, seed=1),
    ),
    "exp2_qsize": (
        "Exp-2 — time/work vs |Q| (EP)", exp2_query_set_size,
        dict(datasets=["EP"], sizes=[8, 16, 24], k_range=(4, 5),
             algos=["BasicEnum", "BasicEnum+", "BatchEnum", "BatchEnum+"], seed=1),
    ),
    "exp2_largeq": (
        "Exp-2 supplement — large |Q| on SL (k 5-6, shared workload)",
        exp2_query_set_size,
        dict(datasets=["SL"], sizes=[50, 100, 200], k_range=(5, 6), share=0.6,
             min_dist=5, algos=["BasicEnum", "BatchEnum", "BatchEnum+"], seed=0),
    ),
    "exp3_decomposition": (
        "Exp-3 — BatchEnum+ stage decomposition", exp3_decomposition,
        dict(datasets=["EP", "SL", "WT", "BS"], n_queries=12, k_range=(4, 5), seed=1),
    ),
    "exp4_gamma": (
        "Exp-4 — BatchEnum+ vs gamma (EP)", exp4_gamma,
        dict(datasets=["EP"], n_queries=12, gammas=[0.1, 0.5, 0.9, 1.0],
             k_range=(4, 5), seed=1),
    ),
    "exp5_scalability": (
        "Exp-5 — scalability (TW-lite, FS-lite samples)", exp5_scalability,
        dict(datasets=["TW", "FS"], pcts=[40, 70, 100], n_queries=8,
             k_range=(4, 5), algos=["BasicEnum", "BatchEnum"], seed=1),
    ),
    "exp6_ksp": (
        "Exp-6 — BatchEnum+ vs DkSP/OnePass (EP)", exp6_ksp,
        dict(datasets=["EP"], n_queries=8, ks=[3, 4, 5], seed=1),
    ),
    "exp7_path_counts": (
        "Exp-7 — avg paths per query vs k (EP)", exp7_path_counts,
        dict(datasets=["EP"], n_queries=10, ks=[3, 4, 5, 6], seed=1),
    ),
}


def to_markdown(df: pd.DataFrame) -> str:
    """Render a result frame as a GitHub-style markdown table."""
    cols = list(df.columns)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for _, r in df.iterrows():
        lines.append("| " + " | ".join(str(r[c]) for c in cols) + " |")
    return "\n".join(lines)
