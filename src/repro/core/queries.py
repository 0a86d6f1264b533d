"""Query model and workload generators.

The paper's default workload: batches of ``|Q|=100`` queries, hop constraint
``k`` uniform in [4, 7], ``(s, t)`` sampled so that ``t`` is reachable from
``s`` within ``k`` hops. Exp-1 additionally sweeps the *batch similarity*
``μ_Q`` from 0% to 90%; here a ``share`` knob re-seeds new queries near
already-drawn ones to move ``μ_Q`` up (the achieved ``μ_Q`` is measured and
reported, mirroring the paper's use of similarity as an approximation of
common computation).
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

Adj = dict[int, list[int]]


@dataclass(frozen=True)
class Query:
    """One HC-s-t path query ``q(s, t, k)`` with a batch-unique id.

    A path has at least one hop, so a query with ``k ≤ 0`` has no answer:
    every enumerator returns no path for it and answers the rest of its
    batch as usual."""

    qid: int
    s: int
    t: int
    k: int


def check_unique_qids(queries: list[Query]) -> None:
    """Raise ``ValueError`` naming every qid two queries share: rows are
    keyed by qid, so a repeated one would mix two queries' answers."""
    repeated = sorted(qid for qid, n in Counter(q.qid for q in queries).items() if n > 1)
    if repeated:
        raise ValueError(f"qid {', '.join(map(str, repeated))} repeated in the batch")


def _random_walk(adj: Adj, s: int, max_hops: int, rng: random.Random) -> list[int]:
    """Simple random walk from ``s``; guarantees the endpoint is reachable."""
    path = [s]
    for _ in range(max_hops):
        nbrs = [v for v in adj.get(path[-1], ()) if v not in path]
        if not nbrs:
            break
        path.append(rng.choice(nbrs))
    return path


def gen_queries(
    adj: Adj,
    n: int,
    *,
    k_range: tuple[int, int] = (4, 7),
    share: float = 0.0,
    min_dist: int = 2,
    seed: int = 0,
) -> list[Query]:
    """Generate ``n`` queries over the graph ``adj``.

    ``share=0`` reproduces the paper's default random workload. With
    ``share>0``, each new query is, with that probability, a *perturbation*
    of a previously drawn one (same or 1-hop-moved endpoints, fresh ``k``),
    which raises the batch similarity ``μ_Q``; ``share`` close to 1 yields
    near-duplicate batches (μ_Q → 90%+), matching Exp-1's sweep.

    ``min_dist`` sets how far along the random walk the target is picked
    (hops, best effort): higher values give queries whose hop budget is
    tight relative to dist(s, t) — many explored prefixes per emitted path.
    """
    rng = random.Random(seed)
    sources = sorted(u for u, vs in adj.items() if vs)
    if not sources:
        raise ValueError("graph has no out-edges")
    lo, hi = k_range
    out: list[Query] = []
    attempts = 0
    while len(out) < n and attempts < 200 * n:
        attempts += 1
        k = rng.randint(lo, hi)
        if out and rng.random() < share:
            base = rng.choice(out)
            s, t = base.s, base.t
            # Perturb one endpoint to a neighbour half the time so shared
            # batches are similar, not identical.
            if rng.random() < 0.5:
                cand = adj.get(s, [])
                s = rng.choice(cand) if cand and rng.random() < 0.5 else s
                k = min(hi, max(lo, base.k + rng.choice((-1, 0, 1))))
            if s == t:
                continue
            out.append(Query(len(out), s, t, k))
            continue
        walk = _random_walk(adj, rng.choice(sources), k, rng)
        lo_pick = max(2, min(min_dist, k))
        if len(walk) - 1 < lo_pick:  # want t far enough to be non-trivial
            continue
        t = walk[rng.randint(lo_pick, len(walk) - 1)]
        out.append(Query(len(out), walk[0], t, k))
    if len(out) < n:
        raise RuntimeError(f"could only generate {len(out)}/{n} queries")
    return out
