"""Query sharing graph Ψ and DetectCommonQuery (Algorithm 3).

Per cluster and per direction (G / G_r), a level-synchronous wave walks the
graph from every initial HC-s query's root. Arrivals at a vertex are grouped
by remaining hop budget (Alg 3's ``S_Q`` at iteration ``k``):

* if the vertex already roots an HC-s node ``P`` (``M_Q[v]``), every arrival
  that may link (see below) links to it — edge ``P → consumer`` in Ψ,
  consumer's enumeration will stop at ``v`` and reuse ``R[P]`` (Alg 3 lines
  20-22, Alg 4 lines 22-23); ``P`` always has budget ≥ the arrival's
  remaining budget because levels run in decreasing budget order, so reuse
  only needs the length filter the paper describes for
  ``q_{v12,1} ⊂ q_{v12,2}``;
* if ≥ 2 arrivals without a consumer share the vertex and budget, a new
  *dominating* HC-s node is created there (lines 16-19) and continues the wave;
* a lone arrival just keeps extending (lines 14-15 / 23-24).

Ψ edges point provider → consumer, and Ψ is one link deep: a node that
consumes never provides, and a node that provides never consumes. An arrival
whose link would break that (or link a node to itself) keeps searching
through the vertex instead. So Ψ is a DAG, as Theorem 4.1 requires, its
topological levels are the non-consumers and the consumers, and a closed
prefix is finished by one attach of its provider's open paths. A consumer's
prune pairs are its direct ``(far, k)`` pairs, final before the wave, so the
pairs a provider inherits when it links are exact (DESIGN.md §2).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.enumeration import HcsNode, QueryPlan, StopRule
from repro.core.index import Adj, DistMap
from repro.core.queries import Query

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
    ) -> None:
        self.side = side
        self.adj = adj
        self.dist_far = dist_far
        self.next_nid = nid_start
        self.providers: set[int] = set()  # nids with a consumer
        self.consumers: set[int] = set()  # nids with a provider
        self.nodes: dict[int, HcsNode] = {}
        self.edges: list[PsiEdge] = []
        self.m_q: dict[int, int] = {}  # root vertex -> nid
        self.pairs: dict[int, dict[int, int]] = defaultdict(dict)  # nid -> {t: cap}
        self.pushed: set[tuple[int, int]] = set()  # (nid, vertex) wave dedup
        # remaining -> vertex -> arrival nids, filled by _push_from
        self.pend: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))

    def _new_node(self, root: int, budget: int) -> HcsNode:
        n = HcsNode(self.next_nid, root, budget, self.side)
        self.next_nid += 1
        self.nodes[n.nid] = n
        return n

    def _add_pair(self, nid: int, t: int, cap: int) -> None:
        cur = self.pairs[nid]
        if cap > cur.get(t, -(10**9)):
            cur[t] = cap

    def _link(self, provider: int, consumer: int, attach: int, ra: int) -> bool:
        """Add Ψ edge provider→consumer unless it is a self-link or would
        make a chain: the provider may have no provider, the consumer no
        consumer. One link deep, a closed prefix is finished by one attach
        round of the enumeration phase (DESIGN.md §2)."""
        if provider == consumer or provider in self.consumers or consumer in self.providers:
            return False
        self.edges.append(PsiEdge(provider, consumer, attach, ra))
        self.providers.add(provider)
        self.consumers.add(consumer)
        # Provider inherits the consumer's pairs (shifted to the provider's
        # local hop frame) so its remaining wave is pruned for this consumer
        # too; a consumer never provides, so its pairs are already final.
        b_c = self.nodes[consumer].budget
        for t, cap in self.pairs[consumer].items():
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
                    # A fresh dominating node has no provider; it is created
                    # only when ≥ 2 arrivals without a consumer can link to
                    # it. Budget-1 nodes would only share single-edge hops —
                    # the "submarginal" sharing the paper's clustering exists
                    # to avoid — so they are not created at all.
                    ok = [x for x in s_q if x not in self.providers]
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
) -> ExecPlan:
    """BatchEnum's plan: run Alg 3 per cluster on G and G_r, merge the
    resulting Ψ fragments and group Ψ into its two topological levels, the
    non-consumers and the consumers. Each Ψ edge is one stop rule: a
    consumer reaches a vertex at most once and stops where it links, so no
    (consumer, vertex) has two edges.

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
            det = _Detector(side, graph, dist_far, nid)
            node_of_root = {
                root: det._new_node(root, root_budget[root]) for root in sorted(root_budget)
            }
            det.run([(n, root_pairs[root]) for root, n in node_of_root.items()])
            nid = det.next_nid
            plan.nodes += list(det.nodes.values())
            plan.edges += det.edges
            all_pairs.update(det.pairs)  # each detector numbers its own nodes
            for q in qs:
                if side == "F":
                    fnid[q.qid] = node_of_root[q.s].nid
                else:
                    plan.plans.append(QueryPlan(
                        q.qid, q.s, q.t, q.k, splits[q.qid],
                        fnid[q.qid], node_of_root[q.t].nid,
                    ))
    # enumerate_nodes finishes a closed prefix in one round: a chain would lose paths
    consumers = {e.consumer for e in plan.edges}
    if any(e.provider in consumers for e in plan.edges):
        raise RuntimeError("Ψ is not one link deep: a consumer also provides")
    levels = (
        [n for n in plan.nodes if n.nid not in consumers],  # in nid order
        [n for n in plan.nodes if n.nid in consumers],
    )
    plan.topo_levels = [lv for lv in levels if lv]
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
