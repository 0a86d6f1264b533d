"""Enumeration primitives: HC-s node expansion, pruning, stops + cache
attachment, ⊕."""
from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st
from pyspark.sql import functions as F

from repro.core import ref_engine as ref
from repro.core.enumeration import (
    EnumStats,
    HcsNode,
    QueryPlan,
    StopRule,
    assemble,
    build_allow,
    enumerate_nodes,
    paths_as_strings,
    unpruned_adjacency,
)
from repro.core.index import bidirectional_index, collect_dists
from repro.core.sharing import ExecPlan
from repro.graph.ops import reverse_adjacency
from repro.oracle import assert_equivalent
from tests.sqlgen import hcs_paths_sql
from tests.test_properties import digraphs


def node_paths(df, nid):
    return {tuple(r["path"]) for r in df.where(F.col("nid") == nid).collect()}


@pytest.fixture(scope="module")
def paper_graph(paper_adj, paper_radj):
    """``(adj, radj)`` of the paper graph: what the per-node adjacency
    tables are built from."""
    return paper_adj, paper_radj


@pytest.fixture(scope="module")
def paper_dists(spark, paper_adj, paper_radj):
    """``(dist_from_s, dist_to_t)`` maps of the paper queries' index."""
    fwd, bwd = bidirectional_index(
        spark, paper_adj, paper_radj, [0, 2, 5, 4, 9], [11, 12, 13, 14], 5
    )
    return collect_dists(fwd), collect_dists(bwd)


def pruned(spark, graph, nodes, prune_pairs, dists):
    """``enumerate_nodes`` under the pruned adjacency of ``prune_pairs``."""
    plan = ExecPlan(nodes=nodes, prune_pairs=prune_pairs)
    return enumerate_nodes(spark, nodes, build_allow(spark, plan, *graph, *dists))


def unpruned(spark, graph, nodes, **kw):
    """``enumerate_nodes`` over every edge of each node's reach."""
    return enumerate_nodes(spark, nodes, unpruned_adjacency(spark, nodes, *graph), **kw)


class TestUnprunedHcsEnumeration:
    """Over the unpruned adjacency, results must be the full HC-s path sets
    (Def 4.2)."""

    @pytest.mark.parametrize("root,budget", [(0, 2), (0, 3), (1, 2), (4, 3), (9, 2)])
    def test_against_ref(self, spark, paper_graph, paper_adj, root, budget):
        stats = EnumStats()
        got = unpruned(spark, paper_graph, [HcsNode(0, root, budget, "F")], stats=stats)
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, root, budget)
        assert stats.expanded_rows >= len(ref.enum_hcs_paths(paper_adj, root, budget)) - 1

    def test_against_duckdb_oracle(self, spark, paper_graph, paper_pdf):
        got = unpruned(spark, paper_graph, [HcsNode(0, 0, 3, "F")])
        rendered = got.select(F.concat_ws("-", "path").alias("path_s"))
        assert_equivalent(rendered, hcs_paths_sql(0, 3), edges=paper_pdf)

    def test_backward_side_uses_reverse_graph(self, spark, paper_graph, paper_radj):
        got = unpruned(spark, paper_graph, [HcsNode(0, 11, 2, "B")])
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_radj, 11, 2)

    def test_budget_zero_only_seed(self, spark, paper_graph):
        got = unpruned(spark, paper_graph, [HcsNode(0, 14, 0, "F")])
        assert node_paths(got, 0) == {(14,)}

    def test_multiple_nodes_batched(self, spark, paper_graph, paper_adj, paper_radj):
        got = unpruned(
            spark, paper_graph,
            [HcsNode(0, 0, 2, "F"), HcsNode(1, 2, 2, "F"), HcsNode(2, 13, 2, "B")],
        )
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, 0, 2)
        assert node_paths(got, 1) == ref.enum_hcs_paths(paper_adj, 2, 2)
        assert node_paths(got, 2) == ref.enum_hcs_paths(paper_radj, 13, 2)

    def test_paths_simple(self, spark, tiny_adj, tiny_radj):
        root = sorted(tiny_adj)[0]
        got = unpruned(spark, (tiny_adj, tiny_radj), [HcsNode(0, root, 3, "F")])
        for r in got.collect():
            p = tuple(r["path"])
            assert len(set(p)) == len(p)
            assert len(p) - 1 == r["len"] and p[-1] == r["last"]


class TestPrunedEnumeration:
    def test_prune_drops_unreachable_branches(
        self, spark, paper_graph, paper_dists, paper_adj
    ):
        # Node for q3(v4,v14,4) forward half: budget 2, target 14, cap 4.
        got = pruned(
            spark, paper_graph,
            [HcsNode(0, 4, 2, "F")], [(0, 14, 4)], paper_dists,
        )
        paths = node_paths(got, 0)
        # (4,9,8) is pruned: dist(8,14)=∞ (Example 3.1)
        assert (4, 9, 8) not in paths
        assert {(4,), (4, 9), (4, 9, 3), (4, 9, 15)} <= paths

    def test_prune_keeps_everything_needed(
        self, spark, paper_graph, paper_dists, paper_adj
    ):
        got = pruned(
            spark, paper_graph,
            [HcsNode(0, 4, 2, "F")], [(0, 14, 4)], paper_dists,
        )
        # every pruned-enumeration path must be a prefix of some ≤4-hop
        # path from 4 to 14
        full = ref.enum_st_paths(paper_adj, 4, 14, 4)
        for p in node_paths(got, 0):
            assert any(f[: len(p)] == p for f in full), p

    def test_example_31_prune_at_v15(
        self, spark, paper_graph, paper_dists
    ):
        # Example 3.1: with prefix (v4,v9,v3), extension v15 is pruned
        # (2 + 1 + dist(15,14)=2 > 4). Full budget-3 node shows the cut.
        got = pruned(
            spark, paper_graph,
            [HcsNode(0, 4, 3, "F")], [(0, 14, 4)], paper_dists,
        )
        paths = node_paths(got, 0)
        assert (4, 9, 3, 15) not in paths
        assert (4, 9, 3, 6) in paths

    def test_looser_cap_explores_more(
        self, spark, paper_graph, paper_dists
    ):
        tight = pruned(
            spark, paper_graph,
            [HcsNode(0, 3, 3, "F")], [(0, 14, 4)], paper_dists,
        )
        loose = pruned(
            spark, paper_graph,
            [HcsNode(0, 3, 3, "F")], [(0, 14, 6)], paper_dists,
        )
        assert node_paths(tight, 0) <= node_paths(loose, 0)

    def test_multi_target_union_semantics(
        self, spark, paper_graph, paper_dists
    ):
        both = pruned(
            spark, paper_graph,
            [HcsNode(0, 0, 3, "F")], [(0, 11, 5), (0, 12, 5)], paper_dists,
        )
        only_11 = pruned(
            spark, paper_graph,
            [HcsNode(0, 0, 3, "F")], [(0, 11, 5)], paper_dists,
        )
        assert node_paths(only_11, 0) <= node_paths(both, 0)

    def test_node_without_pairs_expands_only_its_seed(
        self, spark, paper_graph, paper_dists
    ):
        # Node 1 has no prune pair, so the shared table has no row
        # for it: no extension can serve a query, only [root] is left.
        paired = HcsNode(0, 4, 2, "F")
        unpaired = HcsNode(1, 0, 3, "F")
        both = pruned(
            spark, paper_graph,
            [paired, unpaired], [(0, 14, 4)], paper_dists,
        )
        alone = pruned(
            spark, paper_graph, [paired], [(0, 14, 4)], paper_dists,
        )
        assert node_paths(both, 1) == {(0,)}
        assert node_paths(both, 0) == node_paths(alone, 0)


class TestBuildAllow:
    def test_matches_brute_force_on_tiny(self, spark, tiny_adj, tiny_radj):
        """Forward nodes read dist_G(·, t), backward nodes dist_G(s, ·): the
        table holds exactly the edges u → v of a node's side graph with
        dist(root, u) < budget and dist(root, u) + 1 ≤ allow(nid, v), where
        allow(nid, v) = max(cap − dist(v, t)) over the node's pairs."""
        k_max = 4
        roots = sorted(tiny_adj)
        srcs, tgts = roots[:3], roots[-3:]
        fwd, bwd = bidirectional_index(spark, tiny_adj, tiny_radj, srcs, tgts, k_max)
        dists = collect_dists(fwd), collect_dists(bwd)
        nodes = [HcsNode(0, srcs[0], 2, "F"), HcsNode(1, srcs[1], 3, "F"),
                 HcsNode(2, tgts[0], 2, "B"), HcsNode(3, tgts[1], 1, "B")]
        pairs = [(0, tgts[0], 4), (0, tgts[1], 3), (1, tgts[2], 2),
                 (2, srcs[0], 4), (2, srcs[2], 2), (3, srcs[1], 3)]
        allow: dict[tuple[int, int], int] = {}
        for nid, t, cap in pairs:
            far = tiny_radj if nid in (0, 1) else tiny_adj
            for v, d in ref.bfs_dists(far, t, k_max).items():
                allow[(nid, v)] = max(allow.get((nid, v), cap - d), cap - d)
        want: dict[tuple[int, int, int], int] = {}
        for n in nodes:
            graph = tiny_adj if n.side == "F" else tiny_radj
            for u, d in ref.bfs_dists(graph, n.root, n.budget).items():
                for v in graph.get(u, ()):
                    if d < n.budget and d + 1 <= allow.get((n.nid, v), 0):
                        want[(n.nid, u, v)] = allow[(n.nid, v)]
        assert want
        rows = build_allow(
            spark, ExecPlan(nodes=nodes, prune_pairs=pairs), tiny_adj, tiny_radj, *dists
        ).collect()
        assert len(rows) == len(want)
        assert {(r["nid"], r["src"], r["dst"]): r["allow"] for r in rows} == want

    def test_no_pairs_is_empty(self, spark, paper_graph, paper_dists):
        nodes = [HcsNode(0, 0, 3, "F"), HcsNode(1, 11, 2, "B")]
        padj = build_allow(spark, ExecPlan(nodes=nodes), *paper_graph, *paper_dists)
        assert padj.count() == 0
        got = enumerate_nodes(spark, nodes, padj)
        assert node_paths(got, 0) == {(0,)} and node_paths(got, 1) == {(11,)}

    def test_stop_rules_set_provider(self, spark, paper_graph, paper_dists):
        # Fig 2: dist(·, v14) is 0 for v14, 1 for v6, 2 for v3 and v15,
        # 3 for v9 and 4 for v4; v8 cannot reach v14. Within budget 3, v4
        # reaches v9 at 1 and v3, v15, v8 at 2, so v6 → v14 is beyond it.
        plan = ExecPlan(
            nodes=[HcsNode(0, 4, 3, "F")],
            prune_pairs=[(0, 14, 4)],
            stops=[
                StopRule(0, 9, 7),  # allow 1 ≥ 0 + 1: the row names provider 7
                StopRule(0, 4, 8),  # the root: no edge into it is kept
                StopRule(0, 8, 9),  # unreachable: no row
            ],
        )
        rows = build_allow(spark, plan, *paper_graph, *paper_dists).collect()
        assert {
            (r["nid"], r["src"], r["dst"]): (r["allow"], r["provider"]) for r in rows
        } == {
            (0, 4, 9): (1, 7), (0, 9, 3): (2, None), (0, 9, 15): (2, None),
            (0, 3, 6): (3, None), (0, 15, 6): (3, None),
        }


def expand_chain(spark, adj, *chain):
    """:func:`enumerate_nodes` over the ``chain`` of nodes in one hop loop,
    each node stopping at the root of the node before it; returns R, the
    run's :class:`EnumStats` and the number of Spark jobs it started.

    The stops travel in a table that prunes nothing: each node has one
    prune pair to a target at distance 0 from every vertex, so ``allow =
    budget`` on every row of the node's reach."""
    stats = EnumStats()
    everywhere = {-1: {v: 0 for u, vs in adj.items() for v in [u, *vs]}}
    plan = ExecPlan(
        nodes=list(chain),
        prune_pairs=[(n.nid, -1, n.budget) for n in chain],
        stops=[StopRule(c.nid, p.root, p.nid) for p, c in zip(chain, chain[1:])],
    )
    padj = build_allow(spark, plan, adj, reverse_adjacency(adj), everywhere, everywhere)
    jobs = spark.sparkContext._jsc.sc().dagScheduler().nextJobId
    before = jobs()
    got = enumerate_nodes(spark, plan.nodes, padj, stats=stats)
    return got, stats, jobs() - before


class TestStopsAndCache:
    def test_stop_concatenates_cached_paths(
        self, spark, paper_adj
    ):
        # Provider: q_{v1,2,G}; consumer: q_{v0,3,G} stopping at v1.
        got = expand_chain(
            spark, paper_adj, HcsNode(1, 1, 2, "F"), HcsNode(0, 0, 3, "F")
        )[0]
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, 0, 3)

    def test_one_link_attach_jobs(self, spark, paper_adj):
        # q_{v0,4,G} stops at v1 and reuses q_{v1,3,G}. Ψ is one link deep,
        # so one round finishes every closed prefix. The round is lazy: the
        # job that reads it (⊕'s checkpoint) also runs its broadcast, so the
        # hop loop's 2 jobs per hop (the adjacency's broadcast and the
        # checkpoint) are all that enumerate_nodes starts.
        got, stats, jobs = expand_chain(
            spark, paper_adj, HcsNode(1, 1, 3, "F"), HcsNode(0, 0, 4, "F"),
        )
        assert stats.closed_rows > 0
        assert jobs == 2 * stats.levels
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, 0, 4)
        assert node_paths(got, 1) == ref.enum_hcs_paths(paper_adj, 1, 3)

    def test_no_closed_rows_no_jobs(self, spark, paper_adj):
        got, stats, jobs = expand_chain(spark, paper_adj, HcsNode(0, 0, 4, "F"))
        assert stats.closed_rows == 0
        assert jobs == 2 * stats.levels
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, 0, 4)

    def test_stop_bare_prefix_emitted(self, spark, paper_adj):
        # the zero-length cached path must surface the stopped prefix itself
        got = expand_chain(
            spark, paper_adj, HcsNode(1, 1, 2, "F"), HcsNode(0, 0, 3, "F")
        )[0]
        assert (0, 1) in node_paths(got, 0)

    def test_cache_length_filter(self, spark, paper_adj):
        # provider budget 3 > remaining 2 at attach: longer cached paths
        # must be filtered, result equals plain budget-3 enumeration.
        got = expand_chain(
            spark, paper_adj, HcsNode(1, 1, 3, "F"), HcsNode(0, 0, 3, "F")
        )[0]
        assert node_paths(got, 0) == ref.enum_hcs_paths(paper_adj, 0, 3)

    def test_overlap_with_prefix_filtered(self, spark):
        # graph 0->1->0 cycles: cached provider paths revisiting the prefix
        # must be dropped.
        adj = {0: [1], 1: [0, 2]}
        got = expand_chain(
            spark, adj, HcsNode(1, 1, 2, "F"), HcsNode(0, 0, 3, "F")
        )[0]
        assert (1, 0) in node_paths(got, 1)
        assert node_paths(got, 0) == ref.enum_hcs_paths(adj, 0, 3)


class TestAssemble:
    def _halves(self, spark, paper_graph, q, a):
        return unpruned(
            spark, paper_graph, [HcsNode(0, q[0], a, "F"), HcsNode(1, q[1], q[2] - a, "B")]
        )

    @pytest.mark.parametrize("q,a", [
        ((0, 11, 5), 3), ((0, 11, 5), 2), ((0, 11, 5), 4),
        ((2, 13, 5), 3), ((4, 14, 4), 2), ((9, 14, 3), 2), ((9, 14, 3), 1),
    ])
    def test_matches_ref_any_split(self, spark, paper_graph, paper_adj, q, a):
        paths = self._halves(spark, paper_graph, q, a)
        plan = [QueryPlan(0, q[0], q[1], q[2], a, 0, 1)]
        got = assemble(spark, paths, plan)
        assert {tuple(r["path"]) for r in got.collect()} == ref.enum_st_paths(
            paper_adj, q[0], q[1], q[2]
        )

    @settings(max_examples=25, deadline=None)
    @given(digraphs(), st.integers(0, 7), st.integers(0, 7), st.integers(1, 4))
    def test_every_split_matches_naive(self, spark, adj, s, t, k):
        """Every split ``a ∈ 0..k`` of one query, each its own qid, in one ⊕:
        ``a < k − a`` makes the broadcast backward half the larger side (the
        ⁺ split, DkSP) and ``a = k`` leaves it the bare ``[t]`` (OnePass)."""
        assume(s != t)
        nodes, plans = [], []
        for a in range(k + 1):
            nodes += [HcsNode(2 * a, s, a, "F"), HcsNode(2 * a + 1, t, k - a, "B")]
            plans.append(QueryPlan(a, s, t, k, a, 2 * a, 2 * a + 1))
        paths = unpruned(spark, (adj, reverse_adjacency(adj)), nodes)
        rows = [(r["qid"], tuple(r["path"])) for r in assemble(spark, paths, plans).collect()]
        assert len(rows) == len(set(rows))
        want = ref.enum_st_paths(adj, s, t, k)
        for a in range(k + 1):
            assert {p for qid, p in rows if qid == a} == want, a

    def test_final_join_is_broadcast(self, spark, paper_graph):
        paths = self._halves(spark, paper_graph, (0, 11, 5), 3)
        got = assemble(spark, paths, [QueryPlan(0, 0, 11, 5, 3, 0, 1)])
        plan = got._jdf.queryExecution().executedPlan().toString()
        assert "BroadcastHashJoin" in plan
        assert "Exchange hashpartitioning" not in plan

    def test_no_duplicate_paths(self, spark, paper_graph):
        paths = self._halves(spark, paper_graph, (0, 11, 5), 3)
        got = assemble(spark, paths, [QueryPlan(0, 0, 11, 5, 3, 0, 1)])
        rows = [tuple(r["path"]) for r in got.collect()]
        assert len(rows) == len(set(rows))

    def test_empty_plans(self, spark, paper_graph):
        got = assemble(spark, unpruned(spark, paper_graph, []), [])
        assert got.count() == 0

    def test_paths_as_strings(self, spark, paper_graph):
        paths = self._halves(spark, paper_graph, (4, 14, 4), 2)
        got = paths_as_strings(assemble(spark, paths, [QueryPlan(0, 4, 14, 4, 2, 0, 1)]))
        assert {r["path_s"] for r in got.collect()} == {"4-9-3-6-14", "4-9-15-6-14"}
