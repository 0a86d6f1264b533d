"""Pure-Python reference implementations used as test oracles.

Everything here is deliberately naive (recursive DFS over driver-side
adjacency dicts) so its correctness is obvious by inspection; the Spark
components are cross-checked against these on small graphs, and both are
checked against DuckDB recursive CTEs via ``repro.oracle``.
"""
from __future__ import annotations

from collections import deque

Adj = dict[int, list[int]]
Path = tuple[int, ...]


def bfs_dists(adj: Adj, source: int, k_max: int) -> dict[int, int]:
    """Hop distances from ``source`` to every vertex within ``k_max`` hops."""
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        if dist[u] >= k_max:
            continue
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def reach_set(adj: Adj, source: int, k: int) -> frozenset[int]:
    """Γ(q): vertices reachable from ``source`` within ``k`` hops (incl. s)."""
    return frozenset(bfs_dists(adj, source, k))


def enum_st_paths(adj: Adj, s: int, t: int, k: int) -> set[Path]:
    """All simple paths from ``s`` to ``t`` with at most ``k`` hops.

    Ground truth by exhaustive DFS — no index, no pruning beyond the hop
    budget and simplicity. A query with ``k ≤ 0`` has no path.
    """
    out: set[Path] = set()

    def dfs(path: list[int]) -> None:
        u = path[-1]
        if u == t and len(path) > 1:
            out.add(tuple(path))
            # t must be the endpoint of a simple path; do not extend past it.
            return
        if len(path) - 1 >= k:
            return
        for v in adj.get(u, ()):
            if v not in path:
                path.append(v)
                dfs(path)
                path.pop()

    if s != t:
        dfs([s])
    return out


def enum_hcs_paths(adj: Adj, s: int, k: int) -> set[Path]:
    """HC-s path query (Def 4.2): all simple paths from ``s`` with ≤ k hops,
    including the zero-length path ``(s,)`` (see DESIGN.md §2)."""
    out: set[Path] = set()

    def dfs(path: list[int]) -> None:
        out.add(tuple(path))
        if len(path) - 1 == k:
            return
        for v in adj.get(path[-1], ()):
            if v not in path:
                path.append(v)
                dfs(path)
                path.pop()

    dfs([s])
    return out


def pathenum_ref(adj: Adj, radj: Adj, s: int, t: int, k: int) -> set[Path]:
    """Reference PathEnum: index-pruned bidirectional search + ⊕ (Section III).

    Forward budget ``a = ceil(k/2)``, backward ``b = k - a``. Mirrors the
    Spark pipeline's duplicate-free split (DESIGN.md §2) so the two can be
    compared path-for-path. Must equal :func:`enum_st_paths`.
    """
    if s == t:
        return set()
    a = (k + 1) // 2
    b = k - a
    dist_to_t = bfs_dists(radj, t, k)  # dist_G(v, t)
    dist_from_s = bfs_dists(adj, s, k)  # dist_{G_r}(v, s) reversed role

    def half(adj_: Adj, root: int, budget: int, dist_far: dict[int, int], slack: int) -> set[Path]:
        # All simple prefixes from ``root`` with ≤ budget hops, pruned:
        # extend by v'' iff len+1+dist_far(v'') ≤ budget+slack (= full k).
        out: set[Path] = set()

        def dfs(path: list[int]) -> None:
            out.add(tuple(path))
            if len(path) - 1 == budget:
                return
            for v in adj_.get(path[-1], ()):
                if v in path:
                    continue
                if len(path) + dist_far.get(v, 10**9) > budget + slack:
                    continue
                path.append(v)
                dfs(path)
                path.pop()

        dfs([root])
        return out

    fwd = half(adj, s, a, dist_to_t, b)
    bwd = half(radj, t, b, dist_from_s, a)
    out: set[Path] = set()
    for p in fwd:
        if len(p) - 1 < a and p[-1] == t:
            out.add(p)
    bwd_by_last: dict[int, list[Path]] = {}
    for p in bwd:
        bwd_by_last.setdefault(p[-1], []).append(p)
    for p in fwd:
        if len(p) - 1 != a:
            continue
        for q in bwd_by_last.get(p[-1], ()):
            tail = tuple(reversed(q))[1:]
            if set(p) & set(tail):
                continue
            out.add(p + tail)
    return out


def basic_batch_ref(adj: Adj, radj: Adj, queries) -> dict[int, set[Path]]:
    """Reference BasicEnum: every query answered independently."""
    return {
        q.qid: pathenum_ref(adj, radj, q.s, q.t, q.k) for q in queries
    }
