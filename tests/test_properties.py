"""Property-based tests (hypothesis) over random small digraphs.

These run entirely on the pure-Python reference engine — which the Spark
pipelines are cross-checked against elsewhere — and on the driver-side index
BFS and enumeration tables, so hundreds of random cases stay cheap.
Invariants follow the paper's definitions (simplicity, hop bound, HC-s
prefix closure, Lemma 4.1 domination containment, Lemma 3.1 pruning).
"""
from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.core import ref_engine as ref
from repro.core.basic_enum import compute_splits
from repro.core.clustering import cluster_queries
from repro.core.enumeration import HcsNode, StopRule, pruned_adjacency
from repro.core.index import bfs_index
from repro.core.queries import Query
from repro.core.sharing import (
    ExecPlan,
    align_splits_per_cluster,
    build_basic_plan,
    build_shared_plan,
)
from repro.core.similarity import mu_from_coeffs, pairwise_mu


@st.composite
def digraphs(draw, max_n=8, min_n=2, min_degree=0):
    """A digraph without self-loops on vertices ``0..n-1``, ``min_n ≤ n ≤
    max_n``, with ``min_degree·n`` to ``3n`` edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] != e[1]),
            min_size=min_degree * n,
            max_size=n * 3,
        )
    )
    adj: dict[int, list[int]] = {}
    for u, v in sorted(edges):
        adj.setdefault(u, []).append(v)
    return adj


def radj_of(adj):
    out: dict[int, list[int]] = {}
    for u, vs in adj.items():
        for v in vs:
            out.setdefault(v, []).append(u)
    return out


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.integers(0, 7), st.integers(0, 7), st.integers(1, 5))
def test_pathenum_equals_naive(adj, s, t, k):
    """The bidirectional, index-pruned split finds exactly the naive set."""
    if s == t:
        return
    assert ref.pathenum_ref(adj, radj_of(adj), s, t, k) == ref.enum_st_paths(
        adj, s, t, k
    )


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.lists(st.integers(0, 11), max_size=6), st.integers(0, 5))
def test_index_bfs_equals_ref(adj, roots, k_max):
    """The index's BFS gives each distinct root the reference distances;
    roots may repeat, be sinks, or be absent from the graph (ids ≥ n)."""
    for g in (adj, radj_of(adj)):
        assert bfs_index(g, roots, k_max) == {
            r: ref.bfs_dists(g, r, k_max) for r in set(roots)}


def hop_loop(nodes, step):
    """The ``(nid, path, provider)`` rows ``enumerate_nodes`` yields when
    ``step(node, u)`` gives the ``(v, allow, provider)`` a prefix ending at
    ``u`` may extend by: kept iff ``len + 1 ≤ allow`` and ``v`` is new, and
    closed (not extended) where ``provider`` is set."""
    out = set()
    for n in nodes:
        out.add((n.nid, (n.root,), None))
        frontier = [(n.root,)]
        for length in range(n.budget):
            nxt = []
            for path in frontier:
                for v, allow, provider in step(n, path[-1]):
                    if length + 1 <= allow and v not in path:
                        out.add((n.nid, path + (v,), provider))
                        if provider is None:
                            nxt.append(path + (v,))
            frontier = nxt
    return out


def old_allow_rule(plan, dist_from_s, dist_to_t):
    """The reference: the ``(nid, v) → allow`` table with its stop-rule
    providers, read over the full adjacency, that the per-node pruned
    adjacency replaced."""
    fwd_nids = {n.nid for n in plan.nodes if n.side == "F"}
    allow: dict[tuple[int, int], int] = {}
    for nid, t, cap in plan.prune_pairs:
        dists = dist_to_t if nid in fwd_nids else dist_from_s
        for v, d in dists.get(t, {}).items():
            if cap - d > allow.get((nid, v), 0):
                allow[(nid, v)] = cap - d
    provider = {(s.nid, s.stop_v): s.provider for s in plan.stops}
    return allow, provider


@settings(max_examples=200, deadline=None)
@given(digraphs(), st.data())
def test_pruned_adjacency_is_exact(adj, data):
    """Expanding over the per-node pruned adjacency yields the same rows,
    providers included, as the old allow rule over the whole graph: random
    nodes on both sides, prune pairs (targets may be absent from the
    graph) and stop rules."""
    radj = radj_of(adj)
    vertex = st.integers(0, 8)
    nodes = [
        HcsNode(i, root, budget, side)
        for i, (root, budget, side) in enumerate(data.draw(st.lists(
            st.tuples(vertex, st.integers(0, 4), st.sampled_from("FB")),
            min_size=1, max_size=5,
        )))
    ]
    nid = st.integers(0, len(nodes) - 1)
    pairs = data.draw(st.lists(st.tuples(nid, vertex, st.integers(0, 6)), max_size=8))
    stops = {(c, v): p for c, v, p in
             data.draw(st.lists(st.tuples(nid, vertex, nid), max_size=4))}
    plan = ExecPlan(nodes=nodes, prune_pairs=pairs,
                    stops=[StopRule(c, v, p) for (c, v), p in stops.items()])
    k_max = data.draw(st.integers(0, 5))
    dist_from_s = bfs_index(adj, list(range(9)), k_max)
    dist_to_t = bfs_index(radj, list(range(9)), k_max)

    rows = pruned_adjacency(plan, adj, radj, dist_from_s, dist_to_t)
    assert len({r[:3] for r in rows}) == len(rows)
    padj: dict[tuple[int, int], list] = {}
    for nid_, src, dst, allow, provider in rows:
        padj.setdefault((nid_, src), []).append((dst, allow, provider))
    allow, provider = old_allow_rule(plan, dist_from_s, dist_to_t)

    def old_step(n, u):
        graph = adj if n.side == "F" else radj
        return [(v, allow.get((n.nid, v), 0), provider.get((n.nid, v)))
                for v in graph.get(u, ())]

    assert hop_loop(nodes, lambda n, u: padj.get((n.nid, u), ())) == hop_loop(
        nodes, old_step)


def interpret(plan, adj, radj, dist_from_s, dist_to_t):
    """Each node's R and each query's paths as ``enumerate_nodes`` and
    ``assemble`` compute them from ``plan``: the hop loop over the pruned
    adjacency, one attach round and ⊕'s split rule. Rows are kept in lists,
    so a row produced twice shows."""
    padj = defaultdict(list)
    for nid, src, dst, allow, provider in pruned_adjacency(
        plan, adj, radj, dist_from_s, dist_to_t
    ):
        padj[nid, src].append((dst, allow, provider))
    rows = hop_loop(plan.nodes, lambda n, u: padj[n.nid, u])
    budget = {n.nid: n.budget for n in plan.nodes}
    cached = defaultdict(list)  # the open rows
    for nid, path, provider in rows:
        if provider is None:
            cached[nid].append(path)
    r = {nid: list(paths) for nid, paths in cached.items()}
    for nid, path, provider in rows:
        if provider is not None:  # closed: attach the provider's paths
            r[nid] += [path + c[1:] for c in cached[provider]
                       if len(c) - 1 <= budget[nid] - (len(path) - 1)
                       and not set(path) & set(c[1:])]
    answers = defaultdict(list)
    for p in plan.plans:
        tails = [(b[-1], b[::-1][1:]) for b in r[p.bnid] if 1 <= p.a + len(b) - 1 <= p.k]
        for f in r[p.fnid]:
            # two tests, not one: if the split's cases overlapped, a path
            # would come out twice
            heads = []
            if len(f) - 1 == p.a:  # a path of ≥ a hops splits at a
                heads.append(f)
            if 1 <= len(f) - 1 <= p.a - 1 and f[-1] == p.t:  # a shorter one ends at t
                heads.append(f)
            answers[p.qid] += [head + tail for head in heads for last, tail in tails
                               if last == head[-1] and not set(head) & set(tail)]
    return r, answers


@st.composite
def batches(draw):
    """A digraph of 4–11 vertices and a batch of ≤ 12 queries with ``k``
    0–6. Sources come mostly from a small pool along one walk, so endpoints
    are shared, queries repeat and one source's search reaches another's;
    most targets end a walk from the source, the rest are any id up to 12,
    some absent from the graph."""
    adj = draw(digraphs(max_n=11, min_n=4, min_degree=1))
    vertex = st.integers(0, 12)

    def walk(u):
        for step in draw(st.lists(st.integers(0, 10), max_size=6)):
            u = adj[u][step % len(adj[u])] if adj.get(u) else u
        return u

    pool = [draw(vertex)]
    pool += [walk(pool[0]) for _ in range(draw(st.integers(0, 3)))]
    triples = []
    for _ in range(draw(st.integers(1, 8))):
        s = draw(st.one_of(st.sampled_from(pool), vertex))
        t = walk(s) if draw(st.booleans()) else draw(vertex)
        triples.append((s, t, draw(st.integers(0, 6))))
    repeats = draw(st.lists(st.sampled_from(triples), max_size=4))
    return adj, [Query(i, *q) for i, q in enumerate(triples + repeats)]


@settings(max_examples=300, deadline=None)
@given(batches(), st.sampled_from([0.0, 0.5, 1.0]), st.booleans(), st.booleans())
def test_plans_interpret_to_naive(batch, gamma, optimized, shared):
    """BatchEnum's and BasicEnum's plans, as the Spark pipeline runs them,
    give every query exactly the naive path set with no path twice, and
    every node an R of simple paths from its root within its budget."""
    adj, queries = batch
    radj = radj_of(adj)
    k_max = max(q.k for q in queries)
    dist_from_s = bfs_index(adj, [q.s for q in queries], k_max)
    dist_to_t = bfs_index(radj, [q.t for q in queries], k_max)
    splits = compute_splits(queries, optimized, dist_from_s, dist_to_t)
    if shared:
        mu = pairwise_mu(dist_from_s, dist_to_t, queries)
        clusters = cluster_queries(mu, [q.qid for q in queries], gamma)
        if optimized:
            splits = align_splits_per_cluster(queries, clusters, splits)
        plan = build_shared_plan(
            queries, clusters, splits, adj, radj, dist_from_s, dist_to_t
        )
    else:
        plan = build_basic_plan(queries, splits)

    r, answers = interpret(plan, adj, radj, dist_from_s, dist_to_t)
    for n in plan.nodes:
        # a node of budget < 0 (the ⁺ split of a k = 0 query) keeps its seed
        hcs = ref.enum_hcs_paths(adj if n.side == "F" else radj, n.root, max(n.budget, 0))
        assert len(r[n.nid]) == len(set(r[n.nid])) and set(r[n.nid]) <= hcs, n
    for q in queries:
        got = answers[q.qid]
        assert len(got) == len(set(got)), q
        assert set(got) == ref.enum_st_paths(adj, q.s, q.t, q.k), q


@settings(max_examples=100, deadline=None)
@given(digraphs(), st.integers(0, 7), st.integers(0, 7), st.integers(1, 4))
def test_st_paths_are_simple_bounded_anchored(adj, s, t, k):
    for p in ref.enum_st_paths(adj, s, t, k):
        assert p[0] == s and p[-1] == t
        assert len(p) - 1 <= k
        assert len(set(p)) == len(p)


@settings(max_examples=100, deadline=None)
@given(digraphs(), st.integers(0, 7), st.integers(0, 4))
def test_hcs_prefix_closed_and_simple(adj, s, k):
    paths = ref.enum_hcs_paths(adj, s, k)
    assert (s,) in paths
    for p in paths:
        assert len(set(p)) == len(p) and len(p) - 1 <= k
        for i in range(1, len(p)):
            assert p[:i] in paths


@settings(max_examples=100, deadline=None)
@given(digraphs(), st.integers(0, 7), st.integers(1, 4))
def test_domination_lemma_41(adj, s, k):
    """Lemma 4.1: if q_{v',k'} dominates q_{v,k} (k' ≤ k − dist(v,v')),
    every dominated path extending past v' contains a dominating path."""
    dists = ref.bfs_dists(adj, s, k)
    big = ref.enum_hcs_paths(adj, s, k)
    for v2, d in dists.items():
        k2 = k - d
        if v2 == s or k2 <= 0:
            continue
        small = ref.enum_hcs_paths(adj, v2, k2)
        # every suffix-from-v2 of a path in `big` of length ≤ k2 is in `small`
        for p in big:
            if v2 in p:
                i = p.index(v2)
                # the suffix may be longer than k2 only if v2 was reached
                # later than its BFS depth; clip to k2.
                suf = p[i : i + k2 + 1]
                if len(p) - 1 - i <= k2:
                    assert p[i:] in small


@settings(max_examples=100, deadline=None)
@given(digraphs(), st.integers(0, 7), st.integers(0, 7), st.integers(1, 4))
def test_distance_triangle(adj, u, w, k):
    d = ref.bfs_dists(adj, u, k)
    for v, dv in d.items():
        for x in adj.get(v, ()):
            if dv + 1 <= k:
                assert ref.bfs_dists(adj, u, k).get(x, 10**9) <= dv + 1


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)
)
def test_mu_bounds_and_symmetry(cf, cb):
    m = mu_from_coeffs(cf, cb)
    assert 0.0 <= m <= 1.0
    assert m == mu_from_coeffs(cb, cf)
    assert m <= max(cf, cb) + 1e-12


@settings(max_examples=100, deadline=None)
@given(digraphs(), st.integers(0, 7), st.integers(1, 4))
def test_monotone_reach(adj, s, k):
    assert ref.reach_set(adj, s, k) <= ref.reach_set(adj, s, k + 1)
