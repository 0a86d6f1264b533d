"""HC-s-t query similarity (Defs 4.4–4.6) over hop-constrained neighbours.

Γ(q)/Γ_r(q) are reach sets within ``q.k`` hops of ``q.s`` on G / ``q.t`` on
``G_r`` (Def 4.4). Crucially — as the paper notes — these are *not* computed
specially: they are exactly the rows the index BFS already produced. BatchEnum
collects the index to the driver once, as ``{root: {v: dist}}`` maps
(``repro.core.index.collect_dists``) that Alg 3's detection also reads, so
:func:`gamma_sets` and the |Q|²-sized μ arithmetic run on the driver from
them with no Spark job.
"""
from __future__ import annotations

import itertools

from repro.core.queries import Query

DistMap = dict[int, dict[int, int]]  # root -> vertex -> dist


def gamma_sets(
    dists: DistMap, queries: list[Query], *, by_target: bool
) -> dict[int, set[int]]:
    """``{qid: Γ_r(q)}`` (``by_target``) or ``{qid: Γ(q)}`` from index maps.

    ``dists`` must be collected from the forward index (roots = sources)
    when ``by_target=False`` and from the backward index (roots = targets)
    otherwise, with depth ≥ every ``q.k``.
    """
    out = {}
    for q in queries:
        reach = dists.get(q.t if by_target else q.s, {})
        out[q.qid] = {v for v, d in reach.items() if d <= q.k}
    return out


def _coeff(a: set[int], b: set[int]) -> float:
    """Overlap coefficient |A∩B| / min(|A|, |B|) ∈ [0, 1]."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def mu_from_coeffs(cf: float, cb: float) -> float:
    """μ(q_A, q_B) = 2 / (1/cf + 1/cb): the harmonic mean of the forward and
    backward overlap coefficients — the paper's Def 4.5 rewritten. Per the
    paper's footnote, any zero intersection zeroes μ (2/(x+∞) = 0)."""
    if cf == 0.0 or cb == 0.0:
        return 0.0
    return 2.0 / (1.0 / cf + 1.0 / cb)


def pairwise_mu(
    dist_from_s: DistMap, dist_to_t: DistMap, queries: list[Query]
) -> dict[tuple[int, int], float]:
    """μ for every unordered query pair, keyed ``(qa, qb)`` with qa < qb.

    ``dist_from_s`` / ``dist_to_t`` are the collected forward / backward
    index maps (:func:`repro.core.index.collect_dists`)."""
    gf = gamma_sets(dist_from_s, queries, by_target=False)
    gb = gamma_sets(dist_to_t, queries, by_target=True)
    out: dict[tuple[int, int], float] = {}
    for qa, qb in itertools.combinations(sorted(gf), 2):
        cf = _coeff(gf[qa], gf[qb])
        cb = _coeff(gb[qa], gb[qb])
        out[(qa, qb)] = mu_from_coeffs(cf, cb)
    return out


def batch_similarity(mu: dict[tuple[int, int], float], n_queries: int) -> float:
    """μ_Q: mean pairwise similarity of the batch (Exp-1's x-axis)."""
    if n_queries < 2:
        return 0.0
    return sum(mu.values()) / (n_queries * (n_queries - 1) / 2)


def group_similarity(
    mu: dict[tuple[int, int], float], ca: list[int], cb: list[int]
) -> float:
    """δ(C_A, C_B) (Def 4.6): average pairwise μ across the two groups."""
    tot = 0.0
    for a in ca:
        for b in cb:
            tot += mu[(a, b) if a < b else (b, a)]
    return tot / (len(ca) * len(cb))
