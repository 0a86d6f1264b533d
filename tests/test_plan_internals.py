"""Invariants of the shared execution plan on randomized batches: Ψ one link
deep, prune-pair inheritance, stop-rule/provider consistency; and the
planner's exact output pinned over a grid of batches."""
from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import astuple

import pytest

from repro.core import ref_engine as ref
from repro.core import sharing
from repro.core.basic_enum import compute_splits
from repro.core.clustering import cluster_queries
from repro.core.queries import gen_queries
from repro.core.sharing import (
    align_splits_per_cluster,
    build_shared_plan,
    default_split,
)
from repro.core.similarity import pairwise_mu
from repro.graph.generators import DATASETS, powerlaw_edges
from repro.graph.ops import reverse_adjacency


def dist_maps(adj, roots, k):
    return {r: ref.bfs_dists(adj, r, k) for r in roots}


@pytest.fixture(scope="module", params=[0.0, 0.7])
def rand_plan(request, tiny_adj, tiny_radj):
    qs = gen_queries(tiny_adj, 12, k_range=(3, 5), share=request.param, seed=5)
    splits = {q.qid: default_split(q) for q in qs}
    k = max(q.k for q in qs)
    clusters = [[q.qid for q in qs]]  # single cluster: max sharing stress
    plan = build_shared_plan(
        qs, clusters, splits, tiny_adj, tiny_radj,
        dist_maps(tiny_adj, [q.s for q in qs], k),
        dist_maps(tiny_radj, [q.t for q in qs], k),
    )
    return qs, plan


class TestPlanInvariants:
    def test_depth_cap_respected(self, rand_plan):
        _, plan = rand_plan
        assert len(plan.topo_levels) <= 2
        providers = {e.provider for e in plan.edges}
        assert not providers & {e.consumer for e in plan.edges}

    def test_levels_partition_nodes(self, rand_plan):
        _, plan = rand_plan
        flat = [n.nid for level in plan.topo_levels for n in level]
        assert sorted(flat) == sorted(n.nid for n in plan.nodes)

    def test_edges_point_forward_in_levels(self, rand_plan):
        _, plan = rand_plan
        order = {
            n.nid: i for i, level in enumerate(plan.topo_levels) for n in level
        }
        for e in plan.edges:
            assert order[e.provider] < order[e.consumer]

    def test_every_query_has_both_nodes(self, rand_plan):
        qs, plan = rand_plan
        nodes = {n.nid: n for n in plan.nodes}
        for p in plan.plans:
            assert nodes[p.fnid].side == "F" and nodes[p.fnid].root == p.s
            assert nodes[p.bnid].side == "B" and nodes[p.bnid].root == p.t
            assert nodes[p.fnid].budget >= p.a
            assert nodes[p.bnid].budget >= p.k - p.a

    def test_provider_side_matches_consumer(self, rand_plan):
        _, plan = rand_plan
        nodes = {n.nid: n for n in plan.nodes}
        for e in plan.edges:
            assert nodes[e.provider].side == nodes[e.consumer].side

    def test_provider_budget_at_least_attach_remaining(self, rand_plan):
        _, plan = rand_plan
        nodes = {n.nid: n for n in plan.nodes}
        for e in plan.edges:
            assert nodes[e.provider].budget >= e.ra
            assert nodes[e.consumer].budget >= e.ra

    def test_stop_rules_unique_per_vertex(self, rand_plan):
        _, plan = rand_plan
        seen = set()
        for s in plan.stops:
            assert (s.nid, s.stop_v) not in seen
            seen.add((s.nid, s.stop_v))

    def test_initial_prune_caps_cover_consumers(self, rand_plan):
        """Inherited caps must be at least as loose as each query's own
        requirement on its initial nodes (nothing a consumer needs may be
        pruned away — DESIGN.md §2)."""
        qs, plan = rand_plan
        caps = defaultdict(lambda: -1)
        for nid, t, cap in plan.prune_pairs:
            caps[(nid, t)] = max(caps[(nid, t)], cap)
        for p in plan.plans:
            assert caps[(p.fnid, p.t)] >= p.k
            assert caps[(p.bnid, p.s)] >= p.k

    def test_dominating_nodes_have_budget_ge_2(self, rand_plan):
        qs, plan = rand_plan
        init_nids = {p.fnid for p in plan.plans} | {p.bnid for p in plan.plans}
        for n in plan.nodes:
            if n.nid not in init_nids:
                assert n.budget >= 2  # submarginal sharing suppressed

    def test_no_self_edges(self, rand_plan):
        _, plan = rand_plan
        for e in plan.edges:
            assert e.provider != e.consumer


def _pdf_adjacency(pdf):
    """Driver adjacency straight from a pandas edge frame (no Spark)."""
    adj: dict[int, list[int]] = {}
    for u, v in zip(pdf["src"].tolist(), pdf["dst"].tolist()):
        adj.setdefault(u, []).append(v)
    return {u: sorted(vs) for u, vs in adj.items()}


# sha256 over the plans of test_plan_digest_pinned's grid: a planner change
# that alters any node, edge, stop, cap or level changes it.
PLAN_DIGEST = "e2283fb9f6e89872ce4a56130235e4d0d4efd74b501094b99c30ff678699b2db"


def _grid_plans(adj, radj, n, seed, share, gammas):
    """The plans of one batch over γ × split."""
    qs = gen_queries(adj, n, k_range=(3, 5), share=share, min_dist=2, seed=seed)
    k = max(q.k for q in qs)
    dfs = dist_maps(adj, sorted({q.s for q in qs}), k)
    dtt = dist_maps(radj, sorted({q.t for q in qs}), k)
    mu = pairwise_mu(dfs, dtt, qs)
    for gamma in gammas:
        clusters = cluster_queries(mu, [q.qid for q in qs], gamma)
        for optimized in (False, True):
            splits = compute_splits(qs, optimized, dfs, dtt)
            if optimized:
                splits = align_splits_per_cluster(qs, clusters, splits)
            yield build_shared_plan(qs, clusters, splits, adj, radj, dfs, dtt)


def _digest_grid(tiny_pdf, small_pdf):
    """The 414 plans of graph × seed × share × γ × split that
    :data:`PLAN_DIGEST` pins."""
    for pdf, n, seeds in ((tiny_pdf, 12, range(1, 16)), (small_pdf, 20, range(1, 9))):
        adj = _pdf_adjacency(pdf)
        radj = reverse_adjacency(adj)
        for seed in seeds:
            for share in (0.0, 0.5, 0.9):
                yield from _grid_plans(adj, radj, n, seed, share, (0.0, 0.5, 1.0))


def test_plan_digest_pinned(tiny_pdf, small_pdf):
    """Every part of Ψ's plan is pinned, byte for byte, over a grid of
    batches: graph × seed × share × γ × split. The planner is driver-only,
    so this runs without Spark; it is the baseline any rewrite or fuzzer of
    ``build_shared_plan`` starts from."""
    h = hashlib.sha256()
    levels_seen = set()
    n_plans = 0
    for plan in _digest_grid(tiny_pdf, small_pdf):
        h.update(repr((
            [astuple(x) for x in plan.nodes],
            [astuple(x) for x in plan.edges],
            [astuple(x) for x in plan.plans],
            [astuple(x) for x in plan.stops],
            plan.prune_pairs,
            [[x.nid for x in lv] for lv in plan.topo_levels],
        )).encode())
        levels_seen.add(len(plan.topo_levels))
        n_plans += 1
    assert n_plans == 414
    assert levels_seen == {1, 2}
    assert h.hexdigest() == PLAN_DIGEST


def kahn_levels(plan):
    """Reference topological levels of Ψ, as nid lists: Kahn's algorithm
    over ``plan.edges``, each level in nid order; ``None`` on a cycle."""
    in_deg = {n.nid: 0 for n in plan.nodes}
    out = defaultdict(list)
    for e in plan.edges:
        in_deg[e.consumer] += 1
        out[e.provider].append(e.consumer)
    level = sorted(nid for nid, d in in_deg.items() if d == 0)
    levels = []
    while level:
        levels.append(level)
        nxt = []
        for nid in level:
            for c in out[nid]:
                in_deg[c] -= 1
                if in_deg[c] == 0:
                    nxt.append(c)
        level = sorted(set(nxt))
    return levels if sum(map(len, levels)) == len(plan.nodes) else None


def assert_levels(plan):
    levels = [[n.nid for n in lv] for lv in plan.topo_levels]
    assert levels == kahn_levels(plan)
    at = {nid: i for i, lv in enumerate(levels) for nid in lv}
    assert all(at[e.provider] < at[e.consumer] for e in plan.edges)
    assert len(levels) <= 2


def test_levels_match_kahn(tiny_pdf, small_pdf):
    """The planner's two levels, non-consumers then consumers, are Kahn's
    levels."""
    levels_seen = set()
    for pdf, n, seeds in ((tiny_pdf, 12, range(1, 6)), (small_pdf, 20, range(1, 4))):
        adj = _pdf_adjacency(pdf)
        radj = reverse_adjacency(adj)
        for seed in seeds:
            for share in (0.5, 0.9):
                for plan in _grid_plans(adj, radj, n, seed, share, (0.0, 0.5)):
                    assert_levels(plan)
                    levels_seen.add(len(plan.topo_levels))
    assert max(levels_seen) == 2  # the grid's plans have Ψ edges


def test_no_edge_attaches_at_its_consumers_root(tiny_pdf, small_pdf):
    """A consumer never stops at its own root. With chains allowed, SL
    |Q| = 100, k 4–7, seed 2 linked initial node 1 to dominating node 58 at
    vertex 85, node 58's own root: node 58 was made there at rem 3, before
    node 1 registered the root at rem 2. A dominating node provides, so one
    link deep it cannot consume."""
    adj = _pdf_adjacency(powerlaw_edges(DATASETS["SL"]))
    radj = reverse_adjacency(adj)
    qs = gen_queries(adj, 100, k_range=(4, 7), share=0.6, min_dist=3, seed=2)
    dfs = dist_maps(adj, sorted({q.s for q in qs}), 7)
    dtt = dist_maps(radj, sorted({q.t for q in qs}), 7)
    clusters = cluster_queries(pairwise_mu(dfs, dtt, qs), [q.qid for q in qs], 0.5)
    splits = {q.qid: default_split(q) for q in qs}
    sl_plan = build_shared_plan(qs, clusters, splits, adj, radj, dfs, dtt)
    assert sl_plan.edges
    for plan in [sl_plan, *_digest_grid(tiny_pdf, small_pdf)]:
        root = {n.nid: n.root for n in plan.nodes}
        assert all(e.attach != root[e.consumer] for e in plan.edges)


def test_non_rising_edge_raises(tiny_pdf, monkeypatch):
    """A chain that slips past ``_link``'s one-link rule fails the guard
    instead of losing paths in the one-round attach."""
    adj = _pdf_adjacency(tiny_pdf)
    radj = reverse_adjacency(adj)
    link = sharing._Detector._link

    def chain_link(self, *edge):
        self.consumers.clear()  # forget who consumes: a consumer may provide
        return link(self, *edge)

    monkeypatch.setattr(sharing._Detector, "_link", chain_link)
    with pytest.raises(RuntimeError, match="one link deep"):
        next(_grid_plans(adj, radj, 12, 2, 0.5, (0.5,)))
