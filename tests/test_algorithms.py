"""End-to-end algorithm tests: PathEnum, BasicEnum(+), BatchEnum(+), DkSP,
OnePass all answer the same batches; results are checked per query against
the reference engine and, as whole batches, against the DuckDB oracle.
"""
from __future__ import annotations

import pytest

from repro.baselines.ksp import run_dksp, run_onepass
from repro.core import ref_engine as ref
from repro.core.basic_enum import run_basic
from repro.core.batch_enum import run_batch
from repro.core.enumeration import EnumStats, paths_as_strings
from repro.core.pathenum import run_pathenum
from repro.core.queries import Query, gen_queries
from repro.oracle import assert_equivalent
from tests.sqlgen import st_paths_sql

PAPER_Q = [
    Query(0, 0, 11, 5),
    Query(1, 2, 13, 5),
    Query(2, 5, 12, 5),
    Query(3, 4, 14, 4),
    Query(4, 9, 14, 3),
]


def by_query(rr, queries):
    out = {q.qid: set() for q in queries}
    for r in rr.results.collect():
        out[r["qid"]].add(tuple(r["path"]))
    return out


@pytest.fixture(scope="module")
def tiny_queries(tiny_adj):
    return gen_queries(tiny_adj, 10, k_range=(3, 5), share=0.5, seed=7)


@pytest.fixture(scope="module")
def tiny_expect(tiny_adj, tiny_queries):
    return {
        q.qid: ref.enum_st_paths(tiny_adj, q.s, q.t, q.k) for q in tiny_queries
    }


@pytest.fixture(scope="module")
def paper_expect(paper_adj):
    return {q.qid: ref.enum_st_paths(paper_adj, q.s, q.t, q.k) for q in PAPER_Q}


@pytest.fixture(scope="module")
def paper_runs(spark, paper_edges):
    return {
        "pathenum": run_pathenum(spark, paper_edges, PAPER_Q),
        "basic": run_basic(spark, paper_edges, PAPER_Q),
        "basic+": run_basic(spark, paper_edges, PAPER_Q, optimized=True),
        "batch": run_batch(spark, paper_edges, PAPER_Q, gamma=0.8),
        "batch+": run_batch(spark, paper_edges, PAPER_Q, gamma=0.8, optimized=True),
        "dksp": run_dksp(spark, paper_edges, PAPER_Q),
        "onepass": run_onepass(spark, paper_edges, PAPER_Q),
    }


ALGOS = ["pathenum", "basic", "basic+", "batch", "batch+", "dksp", "onepass"]


class TestPaperBatchCorrectness:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_matches_reference(self, paper_runs, paper_expect, algo):
        assert by_query(paper_runs[algo], PAPER_Q) == paper_expect

    @pytest.mark.parametrize("algo", ["basic", "batch", "batch+"])
    def test_matches_duckdb_oracle(self, paper_runs, paper_pdf, algo):
        got = paths_as_strings(paper_runs[algo].results)
        assert_equivalent(got, st_paths_sql(PAPER_Q), edges=paper_pdf)

    def test_example_21_counts(self, paper_expect):
        # Example 2.1: q0 has exactly three HC-s-t paths
        assert len(paper_expect[0]) == 3

    def test_path_count_reported(self, paper_runs, paper_expect):
        want = sum(len(v) for v in paper_expect.values())
        for algo in ALGOS:
            assert paper_runs[algo].extras["n_paths"] == want, algo

    def test_batch_shares_computation(self, paper_runs):
        # Ψ sharing must reduce expansion work vs BasicEnum on this batch.
        assert (
            paper_runs["batch"].stats.expanded_rows
            < paper_runs["basic"].stats.expanded_rows
        )

    def test_batch_found_sharing_edges(self, paper_runs):
        assert paper_runs["batch"].extras["n_shared_edges"] > 0
        assert paper_runs["batch"].extras["n_clusters"] == 2  # Example 4.1

    def test_stage_timings_present(self, paper_runs):
        assert set(paper_runs["batch+"].timings) == {
            "build_index", "cluster_query", "identify_subquery", "enumeration",
        }
        assert set(paper_runs["basic"].timings) == {"build_index", "enumeration"}

    @pytest.mark.parametrize(
        "algo,want",
        [
            ("batch", EnumStats(expanded_rows=28, closed_rows=8, levels=3)),
            ("batch+", EnumStats(expanded_rows=29, closed_rows=5, levels=3)),
            ("basic", EnumStats(expanded_rows=40, closed_rows=0, levels=3)),
            ("basic+", EnumStats(expanded_rows=40, closed_rows=0, levels=3)),
        ],
    )
    def test_work_counts_pinned(self, paper_runs, algo, want):
        # Recorded before the counts moved onto per-hop observations; the
        # benchmark's per-layer rows/closed_rows/hops read these fields.
        # ``levels`` counts hop rounds: BatchEnum expands all of Ψ in one loop.
        assert paper_runs[algo].stats == want
        assert paper_runs[algo].extras["n_paths"] == 11

    def test_all_paths_respect_hop_constraint(self, paper_runs):
        qk = {q.qid: q.k for q in PAPER_Q}
        for r in paper_runs["batch"].results.collect():
            assert len(r["path"]) - 1 <= qk[r["qid"]]

    def test_all_paths_simple_and_anchored(self, paper_runs):
        qs = {q.qid: q for q in PAPER_Q}
        for r in paper_runs["batch+"].results.collect():
            p = r["path"]
            q = qs[r["qid"]]
            assert p[0] == q.s and p[-1] == q.t and len(set(p)) == len(p)


class TestTinyBatchCorrectness:
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_batch_any_gamma(self, spark, tiny_edges, tiny_queries, tiny_expect, gamma):
        rr = run_batch(spark, tiny_edges, tiny_queries, gamma=gamma)
        assert by_query(rr, tiny_queries) == tiny_expect

    def test_basic_and_optimized(self, spark, tiny_edges, tiny_queries, tiny_expect):
        assert by_query(run_basic(spark, tiny_edges, tiny_queries), tiny_queries) == tiny_expect
        assert (
            by_query(run_basic(spark, tiny_edges, tiny_queries, optimized=True), tiny_queries)
            == tiny_expect
        )

    def test_batch_optimized(self, spark, tiny_edges, tiny_queries, tiny_expect):
        rr = run_batch(spark, tiny_edges, tiny_queries, gamma=0.5, optimized=True)
        assert by_query(rr, tiny_queries) == tiny_expect

    def test_oracle_whole_batch(self, spark, tiny_edges, tiny_pdf, tiny_queries):
        rr = run_batch(spark, tiny_edges, tiny_queries, gamma=0.5)
        assert_equivalent(
            paths_as_strings(rr.results), st_paths_sql(tiny_queries), edges=tiny_pdf
        )


class TestPsiChains:
    """TINY seed 2 plans Ψ in 4 topological levels: a level-2 node's
    provider sits in level 1, so it is itself a consumer, and its cached
    paths must be complete before its own consumers attach them."""

    @pytest.fixture(scope="class")
    def chain_queries(self, tiny_adj):
        return gen_queries(tiny_adj, 10, k_range=(3, 5), share=0.5, seed=2)

    @pytest.mark.parametrize("depth", [{}, {"max_depth": 2}], ids=["default", "depth2"])
    def test_matches_reference(self, spark, tiny_edges, tiny_adj, chain_queries, depth):
        rr = run_batch(spark, tiny_edges, chain_queries, gamma=0.5, **depth)
        if not depth:
            assert rr.extras["n_levels"] >= 3
        want = {
            q.qid: ref.enum_st_paths(tiny_adj, q.s, q.t, q.k) for q in chain_queries
        }
        assert by_query(rr, chain_queries) == want


RUNNERS = pytest.mark.parametrize(
    "run", [run_pathenum, run_basic, run_batch, run_dksp, run_onepass],
    ids=["pathenum", "basic", "batch", "dksp", "onepass"],
)


class TestDegenerateBatches:
    def test_single_query(self, spark, paper_edges, paper_adj):
        q = [Query(0, 0, 11, 5)]
        rr = run_batch(spark, paper_edges, q, gamma=0.5)
        assert by_query(rr, q)[0] == ref.enum_st_paths(paper_adj, 0, 11, 5)

    def test_identical_queries(self, spark, paper_edges, paper_adj):
        qs = [Query(i, 0, 11, 5) for i in range(3)]
        rr = run_batch(spark, paper_edges, qs, gamma=0.5)
        want = ref.enum_st_paths(paper_adj, 0, 11, 5)
        got = by_query(rr, qs)
        assert got[0] == got[1] == got[2] == want

    def test_query_with_no_paths(self, spark, paper_edges):
        # v14 is a sink: nothing reaches v0.
        qs = [Query(0, 14, 0, 4), Query(1, 0, 11, 5)]
        rr = run_batch(spark, paper_edges, qs, gamma=0.5)
        got = by_query(rr, qs)
        assert got[0] == set() and len(got[1]) == 3

    def test_k1_direct_edge(self, spark, paper_edges):
        qs = [Query(0, 0, 1, 1), Query(1, 0, 9, 1)]
        rr = run_basic(spark, paper_edges, qs)
        got = by_query(rr, qs)
        assert got[0] == {(0, 1)} and got[1] == set()

    def test_k2(self, spark, paper_edges, paper_adj):
        qs = [Query(0, 0, 9, 2)]
        rr = run_batch(spark, paper_edges, qs, gamma=0.5)
        assert by_query(rr, qs)[0] == ref.enum_st_paths(paper_adj, 0, 9, 2)

    def test_mixed_k_same_endpoints(self, spark, paper_edges, paper_adj):
        qs = [Query(0, 0, 11, 3), Query(1, 0, 11, 5), Query(2, 0, 11, 6)]
        rr = run_batch(spark, paper_edges, qs, gamma=0.3)
        got = by_query(rr, qs)
        for q in qs:
            assert got[q.qid] == ref.enum_st_paths(paper_adj, 0, 11, q.k), q

    @RUNNERS
    def test_empty_batch(self, spark, paper_edges, run):
        rr = run(spark, paper_edges, [])
        assert rr.results.columns == ["qid", "path"]
        assert rr.results.count() == 0
        assert rr.extras["n_paths"] == 0

    @RUNNERS
    def test_source_is_target(self, spark, paper_edges, paper_adj, run):
        # A simple path of ≥ 1 hop never returns to s, and no query has a
        # zero-hop answer: s == t yields nothing, alone or in a batch.
        alone = [Query(0, 3, 3, 4)]
        rr = run(spark, paper_edges, alone)
        assert by_query(rr, alone) == {0: set()}
        assert rr.extras["n_paths"] == 0
        beside = [Query(0, 3, 3, 4), Query(1, 0, 11, 5)]
        rr = run(spark, paper_edges, beside)
        want = ref.enum_st_paths(paper_adj, 0, 11, 5)
        assert by_query(rr, beside) == {0: set(), 1: want}
        assert rr.extras["n_paths"] == len(want)
