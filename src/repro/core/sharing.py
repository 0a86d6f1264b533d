"""Query sharing graph Ψ and DetectCommonQuery (Algorithm 3).

Per cluster and per direction (G / G_r), a level-synchronous wave walks the
graph from every initial HC-s query's root. Arrivals at a vertex are grouped
by remaining hop budget (Alg 3's ``S_Q`` at iteration ``k``):

* if the vertex already roots an HC-s node ``P`` (``M_Q[v]``), every arrival
  links to it — edge ``P → consumer`` in Ψ, consumer's enumeration will stop
  at ``v`` and reuse ``R[P]`` (Alg 3 lines 20-22, Alg 4 lines 22-23); ``P``
  always has budget ≥ the arrival's remaining budget because levels run in
  decreasing budget order, so reuse only needs the length filter the paper
  describes for ``q_{v12,1} ⊂ q_{v12,2}``;
* if ≥ 2 arrivals share the vertex and budget, a new *dominating* HC-s node
  is created there (lines 16-19) and continues the wave;
* a lone arrival just keeps extending (lines 14-15 / 23-24).

Ψ edges point provider → consumer. A link that would close a cycle is
skipped (the consumer keeps searching through the vertex instead), keeping
Ψ a DAG as Theorem 4.1 requires. Each detector keeps every node's longest
provider chain (``level``) and consumer chain (``height``) as it links, so
the depth cap reads two numbers and Ψ's topological levels are the nodes
grouped by ``level`` (a Kahn level is exactly the longest chain from a root).
Walked in reverse, the same order propagates consumer target/cap pairs
provider-ward, so every node's enumeration is pruned exactly as hard as its
*most demanding* transitive consumer allows (DESIGN.md §2).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.enumeration import HcsNode, QueryPlan, StopRule
from repro.core.index import Adj, DistMap
from repro.core.queries import Query

# Longest provider chain Ψ may hold, counted in nodes (= topological levels).
MAX_DEPTH = 4


@dataclass(frozen=True)
class PsiEdge:
    """Provider→consumer edge of Ψ: while enumerating ``consumer``, arrivals
    at the provider's root vertex reuse ``R[provider]``; ``ra`` is the
    consumer's remaining budget at detection time (its shallowest arrival)."""

    provider: int
    consumer: int
    attach: int
    ra: int


@dataclass
class ExecPlan:
    """Everything the enumeration phase needs, for one batch."""

    nodes: list[HcsNode] = field(default_factory=list)
    edges: list[PsiEdge] = field(default_factory=list)
    plans: list[QueryPlan] = field(default_factory=list)
    prune_pairs: list[tuple[int, int, int]] = field(default_factory=list)
    stops: list[StopRule] = field(default_factory=list)
    topo_levels: list[list[HcsNode]] = field(default_factory=list)


def default_split(q: Query) -> int:
    """PathEnum's fixed split: forward budget ``⌈k/2⌉`` (Alg 1 lines 5-6)."""
    return (q.k + 1) // 2


def optimized_split(
    q: Query,
    fwd_counts: dict[int, dict[int, int]],
    bwd_counts: dict[int, dict[int, int]],
) -> int:
    """The ``⁺`` variants' cost-based search order: pick the forward budget
    ``a`` minimizing the estimated bidirectional work
    ``Σ_{i≤a} f_i + Σ_{j≤k−a} b_j`` from the index frontier counts
    (tie → closest to the balanced split).

    Candidates are restricted to the balanced split ±1: the frontier-count
    estimate counts *vertices*, not tree paths, so it systematically
    under-prices deep one-sided searches whose path trees grow with the
    full branching factor — extreme splits are never worth it."""
    f = fwd_counts.get(q.s, {})
    b = bwd_counts.get(q.t, {})
    mid = default_split(q)
    lo = max(1, mid - 1)
    hi = min(q.k - 1, mid + 1)
    best_a, best_cost = mid, None
    for a in range(lo, hi + 1):
        cost = sum(f.get(i, 0) for i in range(a + 1)) + sum(
            b.get(j, 0) for j in range(q.k - a + 1)
        )
        key = (cost, abs(a - q.k / 2))
        if best_cost is None or key < best_cost:
            best_cost, best_a = key, a
    return best_a


def align_splits_per_cluster(
    queries: list[Query],
    clusters: list[list[int]],
    splits: dict[int, int],
) -> dict[int, int]:
    """Harmonize the ⁺ variant's budget splits within each cluster.

    Sharing detection finds common HC-s queries via *same remaining budget*
    coincidences; per-query splits that differ by ±1 hop destroy those
    coincidences. Each cluster therefore votes: the modal offset from the
    balanced split is applied to every member (clamped to [1, k−1]), keeping
    the cost-based direction preference while restoring alignment."""
    by_qid = {q.qid: q for q in queries}
    out = dict(splits)
    for cluster in clusters:
        offs = [splits[qid] - default_split(by_qid[qid]) for qid in cluster]
        modal = max(set(offs), key=offs.count) if offs else 0
        for qid in cluster:
            q = by_qid[qid]
            out[qid] = min(max(1, default_split(q) + modal), max(1, q.k - 1))
    return out


def build_basic_plan(queries: list[Query], splits: dict[int, int]) -> ExecPlan:
    """BasicEnum's plan: two private HC-s nodes per query, no Ψ, one level.

    Zero cross-query sharing by design (Alg 1 evaluates each query
    separately over the shared index) — identical (root, budget) nodes of
    different queries are deliberately *not* deduplicated.
    """
    plan = ExecPlan()
    nid = 0
    for q in queries:
        a = splits[q.qid]
        fn = HcsNode(nid, q.s, a, "F")
        bn = HcsNode(nid + 1, q.t, q.k - a, "B")
        nid += 2
        plan.nodes += [fn, bn]
        plan.plans.append(QueryPlan(q.qid, q.s, q.t, q.k, a, fn.nid, bn.nid))
        plan.prune_pairs.append((fn.nid, q.t, q.k))
        plan.prune_pairs.append((bn.nid, q.s, q.k))
    plan.topo_levels = [plan.nodes]
    return plan


class _Detector:
    """One cluster+direction run of Algorithm 3 (see module docstring)."""

    def __init__(
        self,
        side: str,
        adj: Adj,
        dist_far: DistMap,
        nid_start: int,
        max_depth: int = MAX_DEPTH,
    ) -> None:
        self.side = side
        self.adj = adj
        self.dist_far = dist_far
        self.next_nid = nid_start
        self.max_depth = max_depth
        self.providers: dict[int, set[int]] = defaultdict(set)  # consumer -> providers
        self.nodes: dict[int, HcsNode] = {}
        self.edges: list[PsiEdge] = []
        self.m_q: dict[int, int] = {}  # root vertex -> nid
        self.pairs: dict[int, dict[int, int]] = defaultdict(dict)  # nid -> {t: cap}
        self.consumers: dict[int, set[int]] = defaultdict(set)  # provider -> consumers
        self.level: dict[int, int] = {}  # nid -> edges on its longest provider chain
        self.height: dict[int, int] = {}  # nid -> edges on its longest consumer chain
        self.pushed: set[tuple[int, int]] = set()  # (nid, vertex) wave dedup
        # remaining -> vertex -> arrival nids, filled by _push_from
        self.pend: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))

    def _new_node(self, root: int, budget: int) -> HcsNode:
        n = HcsNode(self.next_nid, root, budget, self.side)
        self.next_nid += 1
        self.nodes[n.nid] = n
        self.level[n.nid] = self.height[n.nid] = 0
        return n

    def _add_pair(self, nid: int, t: int, cap: int) -> None:
        cur = self.pairs[nid]
        if cap > cur.get(t, -(10**9)):
            cur[t] = cap

    def _reaches(self, src: int, dst: int) -> bool:
        """Whether ``dst`` is ``src`` or lies below it along
        provider→consumer edges."""
        seen: set[int] = set()
        stack = [src]
        while stack:
            u = stack.pop()
            if u == dst:
                return True
            if u not in seen:
                seen.add(u)
                stack.extend(self.consumers.get(u, ()))
        return False

    @staticmethod
    def _raise(depth: dict[int, int], nid: int, value: int, nxt: dict[int, set[int]]) -> None:
        """Raise ``depth[nid]`` to ``value`` and push the rise along ``nxt``
        (one more per edge); stops wherever the depth is already as high."""
        stack = [(nid, value)]
        while stack:
            u, d = stack.pop()
            if d > depth[u]:
                depth[u] = d
                stack.extend((v, d + 1) for v in nxt.get(u, ()))

    def _link(self, provider: int, consumer: int, attach: int, ra: int) -> bool:
        """Add Ψ edge provider→consumer unless it would create a cycle or
        push the longest provider chain past ``max_depth``: the chain through
        the new edge is the provider's ``level``, the edge and the
        consumer's ``height``.

        The depth cap bounds the sequential attach rounds of the
        enumeration phase — each chain link a closed prefix follows costs
        one attach join, while the bulk of the sharing benefit sits in the
        first links (DESIGN.md §2)."""
        if self._reaches(consumer, provider):
            return False
        if self.level[provider] + 1 + self.height[consumer] > self.max_depth - 1:
            return False
        self.edges.append(PsiEdge(provider, consumer, attach, ra))
        self.consumers[provider].add(consumer)
        self.providers[consumer].add(provider)
        self._raise(self.level, consumer, self.level[provider] + 1, self.consumers)
        self._raise(self.height, provider, self.height[consumer] + 1, self.providers)
        # Provider inherits the consumer's current pairs (shifted to the
        # provider's local hop frame) so its remaining wave is pruned for
        # this consumer too; exact caps are recomputed by propagate_pairs.
        b_c = self.nodes[consumer].budget
        for t, cap in list(self.pairs[consumer].items()):
            self._add_pair(provider, t, cap - (b_c - ra))
        return True

    def _wave_prune_ok(self, nid: int, v: int, remaining: int) -> bool:
        node = self.nodes[nid]
        length = node.budget - remaining  # node-local hops at arrival
        for t, cap in self.pairs[nid].items():
            d = self.dist_far.get(t, {}).get(v)
            if d is not None and length + d <= cap:
                return True
        return False

    def run(self, initial: list[tuple[HcsNode, list[tuple[int, int]]]]) -> None:
        """``initial``: nodes made by :meth:`_new_node`, with their direct
        (target, cap) prune pairs. Runs the full wave, populating
        nodes/edges/pairs."""
        for node, pairs in initial:
            for t, cap in pairs:
                self._add_pair(node.nid, t, cap)
        if not initial:
            return
        k_max = max(n.budget for n, _ in initial)
        for rem in range(k_max, -1, -1):
            for node, _ in initial:
                if node.budget == rem:
                    self.m_q[node.root] = node.nid
                    self._push_from(node.nid, node.root, rem)
            arrivals = self.pend.pop(rem, {})
            for v in sorted(arrivals):
                s_q = sorted(set(arrivals[v]))
                owner = self.m_q.get(v)
                if owner is not None:
                    for x in s_q:
                        if not self._link(owner, x, v, rem):
                            self._push_from(x, v, rem)
                elif len(s_q) > 1 and rem >= 2:
                    # A fresh dominating node has no providers (level 0);
                    # pre-check the depth cap per consumer so we only create
                    # it when ≥ 2 consumers can actually share it. Budget-1
                    # nodes would only share single-edge hops — the
                    # "submarginal" sharing the paper's clustering exists to
                    # avoid — so they are not created at all.
                    ok = [
                        x for x in s_q
                        if 1 + self.height[x] <= self.max_depth - 1
                    ]
                    if len(ok) >= 2:
                        d = self._new_node(v, rem)
                        self.m_q[v] = d.nid
                        for x in ok:
                            self._link(d.nid, x, v, rem)
                        self._push_from(d.nid, v, rem)
                    else:
                        ok = []
                    for x in s_q:
                        if x not in ok:
                            self._push_from(x, v, rem)
                else:
                    self._push_from(s_q[0], v, rem)

    def _push_from(self, nid: int, v: int, remaining: int) -> None:
        """Queue ``nid``'s wave extensions from ``v`` as arrivals of the next
        level (``remaining − 1``), which nothing reads before that level."""
        if remaining <= 1:
            return  # arrivals with remaining 0 cannot share anything
        for v2 in self.adj.get(v, ()):
            if (nid, v2) in self.pushed:
                continue
            if not self._wave_prune_ok(nid, v2, remaining - 1):
                continue
            self.pushed.add((nid, v2))
            self.pend[remaining - 1][v2].append(nid)


def build_shared_plan(
    queries: list[Query],
    clusters: list[list[int]],
    splits: dict[int, int],
    adj: Adj,
    radj: Adj,
    dist_from_s: DistMap,
    dist_to_t: DistMap,
    max_depth: int = MAX_DEPTH,
) -> ExecPlan:
    """BatchEnum's plan: run Alg 3 per cluster on G and G_r, merge the
    resulting Ψ fragments and their chain levels, group Ψ into topological
    levels, and propagate prune pairs in that order. Each Ψ edge is one stop
    rule: a consumer reaches a vertex at most once and stops where it links,
    so no (consumer, vertex) has two edges.

    ``dist_from_s[s][v] = dist_G(s, v)`` (prunes the G_r side);
    ``dist_to_t[t][v] = dist_{G_r}(t, v) = dist_G(v, t)`` (prunes the G
    side). Initial HC-s nodes are deduplicated per (cluster, side, root)
    with the maximum budget — the paper's "results of the smaller-budget
    query are derived from the larger" collapse (Theorem 4.1 proof).
    """
    by_qid = {q.qid: q for q in queries}
    plan = ExecPlan()
    nid = 0
    all_pairs: dict[int, dict[int, int]] = defaultdict(dict)
    level: dict[int, int] = {}
    fnid: dict[int, int] = {}  # qid -> forward node, kept for the B pass
    for cluster in clusters:
        qs = [by_qid[qid] for qid in cluster]
        for side, graph, dist_far in (("F", adj, dist_to_t), ("B", radj, dist_from_s)):
            # Initial nodes: one per distinct root, budget = max over queries,
            # with each query's (far endpoint, k) as a direct prune pair.
            root_budget: dict[int, int] = {}
            root_pairs: dict[int, list[tuple[int, int]]] = defaultdict(list)
            for q in qs:
                a = splits[q.qid]
                root, budget, far = (q.s, a, q.t) if side == "F" else (q.t, q.k - a, q.s)
                root_budget[root] = max(root_budget.get(root, 0), budget)
                root_pairs[root].append((far, q.k))
            det = _Detector(side, graph, dist_far, nid, max_depth=max_depth)
            node_of_root = {
                root: det._new_node(root, root_budget[root]) for root in sorted(root_budget)
            }
            det.run([(n, root_pairs[root]) for root, n in node_of_root.items()])
            nid = det.next_nid
            plan.nodes += list(det.nodes.values())
            plan.edges += det.edges
            all_pairs.update(det.pairs)  # each detector numbers its own nodes
            level.update(det.level)
            for q in qs:
                if side == "F":
                    fnid[q.qid] = node_of_root[q.s].nid
                else:
                    plan.plans.append(QueryPlan(
                        q.qid, q.s, q.t, q.k, splits[q.qid],
                        fnid[q.qid], node_of_root[q.t].nid,
                    ))
    if any(level[e.provider] >= level[e.consumer] for e in plan.edges):
        raise RuntimeError("Ψ is not a DAG — cycle guard failed")
    plan.topo_levels = [[] for _ in range(max(level.values(), default=-1) + 1)]
    for n in plan.nodes:  # in nid order
        plan.topo_levels[level[n.nid]].append(n)
    _propagate_pairs(plan, all_pairs)
    plan.prune_pairs = [
        (n_id, t, cap)
        for n_id, pr in sorted(all_pairs.items())
        for t, cap in sorted(pr.items())
        if cap >= 1
    ]
    plan.stops = sorted(
        (StopRule(e.consumer, e.attach, e.provider) for e in plan.edges),
        key=lambda r: (r.nid, r.stop_v),
    )
    return plan


def _propagate_pairs(plan: ExecPlan, pairs: dict[int, dict[int, int]]) -> None:
    """Exact consumer→provider cap propagation: ``plan.topo_levels`` walked
    in reverse visits every consumer, with its caps final, before its
    providers (see DESIGN.md §2)."""
    in_edges: dict[int, list[PsiEdge]] = defaultdict(list)  # consumer -> edges
    for e in plan.edges:
        in_edges[e.consumer].append(e)
    for level in reversed(plan.topo_levels):
        for node in level:
            for e in in_edges.get(node.nid, ()):
                shift = node.budget - e.ra
                for t, cap in pairs[node.nid].items():
                    new_cap = cap - shift
                    if new_cap > pairs[e.provider].get(t, -(10**9)):
                        pairs[e.provider][t] = new_cap
