"""HC-s-t query similarity (Defs 4.4–4.6) over hop-constrained neighbours.

Γ(q)/Γ_r(q) are reach sets within ``q.k`` hops of ``q.s`` on G / ``q.t`` on
``G_r`` (Def 4.4). Crucially — as the paper notes — these are *not* computed
specially: they are exactly the rows the index BFS already produced, so
:func:`gamma_sets` just filters the index DataFrame. Pairwise intersection
sizes come from one (qid, v) self-join; the μ arithmetic on |Q|²-sized
counts runs on the driver.
"""
from __future__ import annotations

import itertools

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.queries import Query
from repro.graph.ops import local_frame


def gamma_members(index: DataFrame, queries: list[Query], *, by_target: bool) -> DataFrame:
    """(qid, v) membership rows of Γ_r (``by_target``) or Γ from the index.

    ``index`` must be the forward index (roots = sources) when
    ``by_target=False`` and the backward index (roots = targets) otherwise.
    """
    root_of = [(q.qid, q.t if by_target else q.s, q.k) for q in queries]
    qmap = F.broadcast(
        local_frame(index.sparkSession, root_of, "qid long, r long, k int")
    )
    return (
        index.join(qmap, index["root"] == qmap["r"])
        .where(F.col("dist") <= F.col("k"))
        .select("qid", "v")
        .distinct()
    )


def _sizes_and_intersections(members: DataFrame) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Collect the (qid, v) membership rows once and intersect on the driver.

    The membership table is |Q| × k-hop-reach ≈ 10⁴–10⁵ rows — metadata-
    sized — so a driver set-intersection beats a Spark self-join (whose
    fixed shuffle cost would dominate BatchEnum's sharing overhead)."""
    pdf = members.toPandas()
    sets: dict[int, set[int]] = {}
    for qid, v in zip(pdf["qid"].tolist(), pdf["v"].tolist()):
        sets.setdefault(int(qid), set()).add(int(v))
    sizes = {q: len(s) for q, s in sets.items()}
    inter: dict[tuple[int, int], int] = {}
    for qa, qb in itertools.combinations(sorted(sets), 2):
        n = len(sets[qa] & sets[qb])
        if n:
            inter[(qa, qb)] = n
    return sizes, inter


def _coeff(sa: int, sb: int, inter: int) -> float:
    """Overlap coefficient |A∩B| / min(|A|, |B|) ∈ [0, 1]."""
    if inter == 0 or sa == 0 or sb == 0:
        return 0.0
    return inter / min(sa, sb)


def mu_from_coeffs(cf: float, cb: float) -> float:
    """μ(q_A, q_B) = 2 / (1/cf + 1/cb): the harmonic mean of the forward and
    backward overlap coefficients — the paper's Def 4.5 rewritten. Per the
    paper's footnote, any zero intersection zeroes μ (2/(x+∞) = 0)."""
    if cf == 0.0 or cb == 0.0:
        return 0.0
    return 2.0 / (1.0 / cf + 1.0 / cb)


def pairwise_mu(
    fwd_index: DataFrame, bwd_index: DataFrame, queries: list[Query]
) -> dict[tuple[int, int], float]:
    """μ for every unordered query pair, keyed ``(qa, qb)`` with qa < qb."""
    gf = gamma_members(fwd_index, queries, by_target=False)
    gb = gamma_members(bwd_index, queries, by_target=True)
    fs, fi = _sizes_and_intersections(gf)
    bs, bi = _sizes_and_intersections(gb)
    out: dict[tuple[int, int], float] = {}
    for qa, qb in itertools.combinations(sorted(q.qid for q in queries), 2):
        cf = _coeff(fs.get(qa, 0), fs.get(qb, 0), fi.get((qa, qb), 0))
        cb = _coeff(bs.get(qa, 0), bs.get(qb, 0), bi.get((qa, qb), 0))
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
