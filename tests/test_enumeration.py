"""Enumeration primitives: HC-s node expansion, pruning, stops + cache
attachment, ⊕."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.core import ref_engine as ref
from repro.core.enumeration import (
    EnumStats,
    HcsNode,
    QueryPlan,
    StopRule,
    assemble,
    attach_cached,
    empty_paths,
    enumerate_nodes,
    paths_as_strings,
)
from repro.core.index import multi_source_bfs
from repro.graph.ops import reverse_edges
from repro.oracle import assert_equivalent
from tests.sqlgen import hcs_paths_sql


def node_paths(df, nid):
    return {tuple(r["path"]) for r in df.where(F.col("nid") == nid).collect()}


@pytest.fixture(scope="module")
def paper_rev(paper_edges):
    return reverse_edges(paper_edges).cache()


@pytest.fixture(scope="module")
def paper_bwd_index(spark, paper_rev):
    return multi_source_bfs(spark, paper_rev, [11, 12, 13, 14], 5)


@pytest.fixture(scope="module")
def paper_fwd_index(spark, paper_edges):
    return multi_source_bfs(spark, paper_edges, [0, 2, 5, 4, 9], 5)


class TestUnprunedHcsEnumeration:
    """No prune pairs: results must be the full HC-s path sets (Def 4.2)."""

    @pytest.mark.parametrize("root,budget", [(0, 2), (0, 3), (1, 2), (4, 3), (9, 2)])
    def test_against_ref(self, spark, paper_edges, paper_rev, paper_adj, root, budget):
        stats = EnumStats()
        got = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, root, budget, "F")], [],
            empty_paths(spark), empty_paths(spark), stats=stats,
        )
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, root, budget)
        assert stats.expanded_rows >= len(ref.enum_hcs_paths(paper_adj, root, budget)) - 1

    def test_against_duckdb_oracle(self, spark, paper_edges, paper_rev, paper_pdf):
        got = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 0, 3, "F")], [],
            empty_paths(spark), empty_paths(spark),
        )
        rendered = got.select(F.concat_ws("-", "path").alias("path_s"))
        assert_equivalent(rendered, hcs_paths_sql(0, 3), edges=paper_pdf)

    def test_backward_side_uses_reverse_graph(self, spark, paper_edges, paper_rev, paper_radj):
        got = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 11, 2, "B")], [],
            empty_paths(spark), empty_paths(spark),
        )
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_radj, 11, 2)

    def test_budget_zero_only_seed(self, spark, paper_edges, paper_rev):
        got = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 14, 0, "F")], [],
            empty_paths(spark), empty_paths(spark),
        )
        assert node_paths(got, 0) == {(14,)}

    def test_multiple_nodes_batched(self, spark, paper_edges, paper_rev, paper_adj, paper_radj):
        got = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 0, 2, "F"), HcsNode(1, 2, 2, "F"), HcsNode(2, 13, 2, "B")],
            [], empty_paths(spark), empty_paths(spark),
        )
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, 0, 2)
        assert node_paths(got, 1) == ref.enum_hcs_paths(paper_adj, 2, 2)
        assert node_paths(got, 2) == ref.enum_hcs_paths(paper_radj, 13, 2)

    def test_paths_simple(self, spark, tiny_edges, tiny_adj):
        rev = reverse_edges(tiny_edges)
        root = sorted(tiny_adj)[0]
        got = enumerate_nodes(
            spark, tiny_edges, rev, [HcsNode(0, root, 3, "F")], [],
            empty_paths(spark), empty_paths(spark),
        )
        for r in got.collect():
            p = tuple(r["path"])
            assert len(set(p)) == len(p)
            assert len(p) - 1 == r["len"] and p[-1] == r["last"]


class TestPrunedEnumeration:
    def test_prune_drops_unreachable_branches(
        self, spark, paper_edges, paper_rev, paper_bwd_index, paper_adj
    ):
        # Node for q3(v4,v14,4) forward half: budget 2, target 14, cap 4.
        got = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 4, 2, "F")], [(0, 14, 4)],
            empty_paths(spark), paper_bwd_index,
        )
        paths = node_paths(got, 0)
        # (4,9,8) is pruned: dist(8,14)=∞ (Example 3.1)
        assert (4, 9, 8) not in paths
        assert {(4,), (4, 9), (4, 9, 3), (4, 9, 15)} <= paths

    def test_prune_keeps_everything_needed(
        self, spark, paper_edges, paper_rev, paper_bwd_index, paper_adj
    ):
        got = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 4, 2, "F")], [(0, 14, 4)],
            empty_paths(spark), paper_bwd_index,
        )
        # every pruned-enumeration path must be a prefix of some ≤4-hop
        # path from 4 to 14
        full = ref.enum_st_paths(paper_adj, 4, 14, 4)
        for p in node_paths(got, 0):
            assert any(f[: len(p)] == p for f in full), p

    def test_example_31_prune_at_v15(
        self, spark, paper_edges, paper_rev, paper_bwd_index
    ):
        # Example 3.1: with prefix (v4,v9,v3), extension v15 is pruned
        # (2 + 1 + dist(15,14)=2 > 4). Full budget-3 node shows the cut.
        got = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 4, 3, "F")], [(0, 14, 4)],
            empty_paths(spark), paper_bwd_index,
        )
        paths = node_paths(got, 0)
        assert (4, 9, 3, 15) not in paths
        assert (4, 9, 3, 6) in paths

    def test_looser_cap_explores_more(
        self, spark, paper_edges, paper_rev, paper_bwd_index
    ):
        tight = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 3, 3, "F")], [(0, 14, 4)],
            empty_paths(spark), paper_bwd_index,
        )
        loose = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 3, 3, "F")], [(0, 14, 6)],
            empty_paths(spark), paper_bwd_index,
        )
        assert node_paths(tight, 0) <= node_paths(loose, 0)

    def test_multi_target_union_semantics(
        self, spark, paper_edges, paper_rev, paper_bwd_index
    ):
        both = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 0, 3, "F")], [(0, 11, 5), (0, 12, 5)],
            empty_paths(spark), paper_bwd_index,
        )
        only_11 = enumerate_nodes(
            spark, paper_edges, paper_rev,
            [HcsNode(0, 0, 3, "F")], [(0, 11, 5)],
            empty_paths(spark), paper_bwd_index,
        )
        assert node_paths(only_11, 0) <= node_paths(both, 0)


def expand_then_attach(spark, edges, rev, provider, consumer):
    """Expand ``provider`` and ``consumer`` in one hop loop, the consumer
    stopping at the provider's root, then attach the provider's paths."""
    stats = EnumStats()
    stops = [StopRule(consumer.nid, provider.root, provider.nid)]
    expanded = enumerate_nodes(
        spark, edges, rev, [provider, consumer], [],
        empty_paths(spark), empty_paths(spark), stops=stops, stats=stats,
    )
    return attach_cached(expanded, [[provider], [consumer]], stops, stats.closers)


class TestStopsAndCache:
    def test_stop_concatenates_cached_paths(
        self, spark, paper_edges, paper_rev, paper_adj
    ):
        # Provider: q_{v1,2,G}; consumer: q_{v0,3,G} stopping at v1.
        got = expand_then_attach(
            spark, paper_edges, paper_rev, HcsNode(1, 1, 2, "F"), HcsNode(0, 0, 3, "F")
        )
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, 0, 3)

    def test_stop_bare_prefix_emitted(self, spark, paper_edges, paper_rev):
        # the zero-length cached path must surface the stopped prefix itself
        got = expand_then_attach(
            spark, paper_edges, paper_rev, HcsNode(1, 1, 2, "F"), HcsNode(0, 0, 3, "F")
        )
        assert (0, 1) in node_paths(got, 0)

    def test_cache_length_filter(self, spark, paper_edges, paper_rev, paper_adj):
        # provider budget 3 > remaining 2 at attach: longer cached paths
        # must be filtered, result equals plain budget-3 enumeration.
        got = expand_then_attach(
            spark, paper_edges, paper_rev, HcsNode(1, 1, 3, "F"), HcsNode(0, 0, 3, "F")
        )
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, 0, 3)

    def test_overlap_with_prefix_filtered(self, spark):
        # graph 0->1->0 cycles: cached provider paths revisiting the prefix
        # must be dropped.
        from repro.graph.generators import edges_from_list

        edges = edges_from_list(spark, [(0, 1), (1, 0), (1, 2)])
        rev = reverse_edges(edges)
        got = expand_then_attach(
            spark, edges, rev, HcsNode(1, 1, 2, "F"), HcsNode(0, 0, 3, "F")
        )
        assert (1, 0) in node_paths(got, 1)
        adj = {0: [1], 1: [0, 2]}
        assert node_paths(got, 0) == ref.enum_hcs_paths(adj, 0, 3)


class TestAssemble:
    def _halves(self, spark, paper_edges, paper_rev, q, a):
        fwd = enumerate_nodes(
            spark, paper_edges, paper_rev, [HcsNode(0, q[0], a, "F")], [],
            empty_paths(spark), empty_paths(spark),
        )
        bwd = enumerate_nodes(
            spark, paper_edges, paper_rev, [HcsNode(1, q[1], q[2] - a, "B")], [],
            empty_paths(spark), empty_paths(spark),
        )
        return fwd.unionByName(bwd)

    @pytest.mark.parametrize("q,a", [
        ((0, 11, 5), 3), ((0, 11, 5), 2), ((0, 11, 5), 4),
        ((2, 13, 5), 3), ((4, 14, 4), 2), ((9, 14, 3), 2), ((9, 14, 3), 1),
    ])
    def test_matches_ref_any_split(self, spark, paper_edges, paper_adj, q, a):
        rev = reverse_edges(paper_edges)
        paths = self._halves(spark, paper_edges, rev, q, a)
        plan = [QueryPlan(0, q[0], q[1], q[2], a, 0, 1)]
        got = assemble(spark, paths, plan)
        assert {tuple(r["path"]) for r in got.collect()} == ref.enum_st_paths(
            paper_adj, q[0], q[1], q[2]
        )

    def test_no_duplicate_paths(self, spark, paper_edges):
        rev = reverse_edges(paper_edges)
        paths = self._halves(spark, paper_edges, rev, (0, 11, 5), 3)
        got = assemble(spark, paths, [QueryPlan(0, 0, 11, 5, 3, 0, 1)])
        rows = [tuple(r["path"]) for r in got.collect()]
        assert len(rows) == len(set(rows))

    def test_empty_plans(self, spark, paper_edges):
        got = assemble(spark, empty_paths(spark), [])
        assert got.count() == 0

    def test_paths_as_strings(self, spark, paper_edges):
        rev = reverse_edges(paper_edges)
        paths = self._halves(spark, paper_edges, rev, (4, 14, 4), 2)
        got = paths_as_strings(assemble(spark, paths, [QueryPlan(0, 4, 14, 4, 2, 0, 1)]))
        assert {r["path_s"] for r in got.collect()} == {"4-9-3-6-14", "4-9-15-6-14"}
