"""ClusterQuery (Algorithm 2): hierarchical agglomerative clustering of the
batch under group-average linkage δ, stopping at threshold γ.

The paper runs this on the driver too ("the number of queries in Q is medium
in size"); its input, the μ matrix, is computed in ``repro.core.similarity``
from the index rows already collected to the driver.
"""
from __future__ import annotations


def cluster_queries(
    mu: dict[tuple[int, int], float],
    qids: list[int],
    gamma: float,
) -> list[list[int]]:
    """Greedily merge the two most-similar clusters while δ_max > γ.

    Follows Alg 2 exactly: start from singletons; each round find the pair
    of clusters with maximum δ (Def 4.6) and merge it if δ > γ; stop
    otherwise. Ties break on the smallest (i, j) scan order, like the
    pseudo-code's ``>`` comparison. Returns clusters as sorted qid lists,
    ordered by smallest member.
    """
    clusters: list[list[int]] = [[q] for q in sorted(qids)]

    def delta(ca: list[int], cb: list[int]) -> float:
        tot = 0.0
        for a in ca:
            for b in cb:
                tot += mu[(a, b) if a < b else (b, a)]
        return tot / (len(ca) * len(cb))

    while len(clusters) > 1:
        best, bi, bj = 0.0, -1, -1
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = delta(clusters[i], clusters[j])
                if d > best:
                    best, bi, bj = d, i, j
        if best <= gamma or bi < 0:
            break
        merged = sorted(clusters[bi] + clusters[bj])
        clusters = [c for idx, c in enumerate(clusters) if idx not in (bi, bj)]
        clusters.append(merged)
    return sorted((sorted(c) for c in clusters), key=lambda c: c[0])
