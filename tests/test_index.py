"""Distance index: against the reference BFS and the DuckDB oracle.

Both index halves come from ``bidirectional_index``; ``fwd_index`` and
``bwd_index`` below take one half each."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.core import ref_engine as ref
from repro.core.index import bidirectional_index, collect_dists, index_counts
from repro.oracle import assert_equivalent
from tests.sqlgen import dists_sql


def fwd_index(spark, adj, roots, k_max):
    """``dist_G(root, ·)`` for ``roots``: the index's forward half."""
    return bidirectional_index(spark, adj, {}, roots, [], k_max)[0]


def bwd_index(spark, radj, roots, k_max):
    """``dist_{G_r}(root, ·)`` for ``roots``: the index's backward half."""
    return bidirectional_index(spark, {}, radj, [], roots, k_max)[1]


class TestMultiSourceBfs:
    def test_paper_graph_single_root_oracle(self, spark, paper_adj, paper_pdf):
        got = fwd_index(spark, paper_adj, [0], 5).select(
            "root", "v", F.col("dist").cast("int").alias("dist")
        )
        assert_equivalent(got, dists_sql([0], 5), edges=paper_pdf)

    def test_paper_graph_multi_root_oracle(self, spark, paper_adj, paper_pdf):
        roots = [0, 2, 5, 4, 9]
        got = fwd_index(spark, paper_adj, roots, 5).select(
            "root", "v", F.col("dist").cast("int").alias("dist")
        )
        assert_equivalent(got, dists_sql(roots, 5), edges=paper_pdf)

    def test_reverse_graph_oracle(self, spark, paper_radj, paper_pdf):
        got = bwd_index(spark, paper_radj, [11, 13, 12, 14], 5).select(
            "root", "v", F.col("dist").cast("int").alias("dist")
        )
        rev_pdf = paper_pdf.rename(columns={"src": "dst", "dst": "src"})[
            ["src", "dst"]
        ]
        assert_equivalent(got, dists_sql([11, 12, 13, 14], 5), edges=rev_pdf)

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("graph", ["tiny", "small"])
    @pytest.mark.parametrize("half", [fwd_index, bwd_index], ids=["fwd", "bwd"])
    def test_tiny_graph_matches_ref(self, spark, request, half, graph, k_max):
        adj = request.getfixturevalue(
            f"{graph}_adj" if half is fwd_index else f"{graph}_radj")
        roots = sorted(adj)[:8]
        got = collect_dists(half(spark, adj, roots, k_max))
        for r in roots:
            assert got.get(r, {}) == ref.bfs_dists(adj, r, k_max), r

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_k_cap_respected(self, spark, paper_adj, k_max):
        idx = fwd_index(spark, paper_adj, [0], k_max)
        assert idx.agg(F.max("dist")).collect()[0][0] <= k_max

    def test_duplicate_roots_deduped(self, spark, paper_adj):
        a = fwd_index(spark, paper_adj, [0, 0, 0], 3).count()
        b = fwd_index(spark, paper_adj, [0], 3).count()
        assert a == b

    def test_empty_roots(self, spark, paper_adj):
        assert fwd_index(spark, paper_adj, [], 3).count() == 0

    def test_root_with_no_outedges(self, spark, paper_adj):
        # v14 is a sink: only the dist-0 self row.
        idx = fwd_index(spark, paper_adj, [14], 5)
        assert [(r["v"], r["dist"]) for r in idx.collect()] == [(14, 0)]

    def test_min_distance_kept(self, spark, paper_adj):
        # v6 reachable from 0 at 4 (0-4-9-3-6) and 5 (0-4-9-3-15... ) — BFS
        # must record 4.
        got = collect_dists(fwd_index(spark, paper_adj, [0], 5))
        assert got[0][6] == ref.bfs_dists(paper_adj, 0, 5)[6] == 4


class TestIndexCounts:
    def test_counts_sum_to_rows(self, spark, paper_adj):
        idx = fwd_index(spark, paper_adj, [0, 2], 5)
        counts = index_counts(collect_dists(idx))
        assert sum(sum(d.values()) for d in counts.values()) == idx.count()

    def test_dist_zero_is_one(self, spark, paper_adj):
        counts = index_counts(collect_dists(fwd_index(spark, paper_adj, [0], 5)))
        assert counts[0][0] == 1

    def test_paper_frontiers_from_v0(self, spark, paper_adj):
        counts = index_counts(collect_dists(fwd_index(spark, paper_adj, [0], 5)))
        # 0 -> {1,4} -> {7,8,9} -> {10,3,15} -> {12,6} -> {11,13,14}
        assert counts[0] == {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 3}


class TestCollectDists:
    def test_round_trip(self, spark, paper_adj, paper_radj):
        jobs = spark.sparkContext._jsc.sc().dagScheduler().nextJobId
        before = jobs()
        fwd, bwd = bidirectional_index(spark, paper_adj, paper_radj, [0, 4], [14], 4)
        d, _ = collect_dists(fwd), collect_dists(bwd)
        # both halves are local relations: building and reading start no job
        assert jobs() == before
        assert set(d) == {0, 4}
        assert d[4][14] == 4 and d[0][0] == 0
