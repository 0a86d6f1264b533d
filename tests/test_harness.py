"""Experiment harness smoke tests: every runner produces the rows its table
needs, on a tiny dataset so the whole module stays fast."""
from __future__ import annotations

import inspect
import pathlib
import time

import pytest

from repro.harness import experiments as ex
from repro.harness.timing import StageTimer


class TestStageTimer:
    def test_records_stage(self):
        t = StageTimer()
        with t.stage("a"):
            pass
        assert "a" in t.seconds and t.seconds["a"] >= 0

    def test_accumulates(self):
        t = StageTimer()
        for _ in range(2):
            with t.stage("a"):
                time.sleep(0.01)
        assert t.seconds["a"] >= 0.02

    def test_records_on_exception(self):
        t = StageTimer()
        with pytest.raises(ValueError):
            with t.stage("a"):
                raise ValueError
        assert "a" in t.seconds


class TestTable1:
    def test_columns_and_rows(self, spark):
        df = ex.table1_datasets(spark, ["TINY", "SMALL"])
        assert list(df.columns) == ["name", "V", "E", "d_avg", "d_max"]
        assert list(df["name"]) == ["TINY", "SMALL"]
        assert (df["E"] > 0).all()


@pytest.mark.parametrize(
    "runner,kwargs,expect_cols",
    [
        (
            ex.exp1_similarity,
            dict(datasets=["TINY"], n_queries=6, shares=[0.0, 0.8],
                 k_range=(3, 4), algos=["BasicEnum", "BatchEnum"]),
            {"dataset", "algo", "seconds", "work", "share", "mu_q", "speedup_limit"},
        ),
        (
            ex.exp2_query_set_size,
            dict(datasets=["TINY"], sizes=[4, 8], k_range=(3, 4),
                 algos=["BasicEnum", "BatchEnum"]),
            {"dataset", "algo", "seconds", "work", "n_queries"},
        ),
        (
            ex.exp4_gamma,
            dict(datasets=["TINY"], n_queries=6, gammas=[0.3, 0.9], k_range=(3, 4)),
            {"dataset", "algo", "gamma", "n_clusters", "n_shared"},
        ),
        (
            ex.exp6_ksp,
            dict(datasets=["TINY"], n_queries=4, ks=[3],
                 algos=["BatchEnum+", "OnePass"]),
            {"dataset", "algo", "k", "seconds", "work"},
        ),
        (
            ex.exp7_path_counts,
            dict(datasets=["TINY"], n_queries=5, ks=[3, 4]),
            {"dataset", "k", "avg_paths", "total_paths"},
        ),
    ],
)
def test_runners_produce_tables(spark, runner, kwargs, expect_cols):
    df = runner(spark, **kwargs)
    assert len(df) > 0
    assert expect_cols <= set(df.columns)
    if "algos" in kwargs:  # exp1, exp2, exp6
        assert set(df["algo"]) == set(kwargs["algos"])
    if "sizes" in kwargs:  # exp2
        assert sorted(df["n_queries"].unique()) == kwargs["sizes"]
    if "gammas" in kwargs:  # exp4: one row per γ
        assert list(df["gamma"]) == kwargs["gammas"]


def test_exp3_decomposition(spark):
    df = ex.exp3_decomposition(spark, ["TINY"], n_queries=6, k_range=(3, 4))
    assert {"build_index", "cluster_query", "identify_subquery", "enumeration", "total"} <= set(df.columns)
    assert list(df["dataset"]) == ["TINY"]
    row = df.iloc[0]
    assert row["total"] >= row["enumeration"]


def test_exp5_scalability(spark):
    df = ex.exp5_scalability(
        spark, ["SMALL"], pcts=[50, 100], n_queries=4, k_range=(3, 3),
        algos=["BasicEnum", "BatchEnum"],
    )
    assert {"pct", "n_edges"} <= set(df.columns)
    assert sorted(df["pct"].unique()) == [50, 100]


def test_exp7_counts_grow_with_k(spark):
    df = ex.exp7_path_counts(spark, ["TINY"], n_queries=6, ks=[2, 4])
    by_k = df.set_index("k")["avg_paths"]
    assert by_k[4] >= by_k[2]


def test_to_markdown(spark):
    df = ex.table1_datasets(spark, ["TINY"])
    md = ex.to_markdown(df)
    assert md.startswith("| name |") and "TINY" in md


def test_tables_match_results():
    # Spark-free: a renamed runner keyword fails here, not at the end of a
    # long `python -m repro.harness` sweep.
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    files = {p.stem: p for p in results.glob("*.md")}
    assert set(ex.TABLES) == set(files)
    for name, (title, runner, kwargs) in ex.TABLES.items():
        assert files[name].read_text().splitlines()[0] == f"## {title}", name
        inspect.signature(runner).bind(None, **kwargs)


def test_algo_runner_dispatch():
    for name in ("PathEnum", "BasicEnum", "BasicEnum+", "BatchEnum", "BatchEnum+", "DkSP", "OnePass"):
        assert callable(ex.algo_runner(name))
    with pytest.raises(KeyError):
        ex.algo_runner("nope")
