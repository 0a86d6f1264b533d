"""ClusterQuery (Algorithm 2): hierarchical agglomerative clustering of the
batch under group-average linkage δ, stopping at threshold γ.

The paper runs this on the driver too ("the number of queries in Q is medium
in size"); its input, the μ matrix, is computed in ``repro.core.similarity``
from the index rows already collected to the driver. The clustering keeps a
dense matrix of μ sums between clusters, so a merge is one vectorized scan
and one row addition (the Lance–Williams update of average linkage, on sums)
instead of recomputing δ (Def 4.6) over every cluster pair.
"""
from __future__ import annotations

import itertools

import numpy as np


def cluster_queries(
    mu: dict[tuple[int, int], float],
    qids: list[int],
    gamma: float,
) -> list[list[int]]:
    """Greedily merge the two most-similar clusters while δ_max > γ.

    Follows Alg 2: start from singletons in qid order; each round find the
    pair of clusters with maximum δ (Def 4.6) and merge it if δ > γ (and
    δ > 0); stop otherwise. The merged cluster replaces the pair at the end
    of the cluster list. Ties break on the first pair in ``(i, j)`` scan
    order of that list, like the pseudo-code's ``>`` comparison.

    ``S[i, j]`` is the sum of μ over the member pairs of clusters ``i`` and
    ``j``, so δ is ``S[i, j] / (|i|·|j|)`` and a merge adds two rows of
    ``S``. These sums add μ in another order than Def 4.6's double loop,
    so two δ that are equal in exact arithmetic may differ by an ulp and
    break a tie the other way.

    Returns clusters as sorted qid lists, ordered by smallest member.
    """
    order = sorted(qids)
    n = len(order)
    sums = np.zeros((n, n))
    sums[np.triu_indices(n, 1)] = [mu[p] for p in itertools.combinations(order, 2)]
    sums += sums.T
    sizes = np.ones(n, dtype=np.int64)
    clusters: list[list[int]] = [[q] for q in order]
    while len(clusters) > 1:
        # the strict upper triangle in cluster-list order; argmax takes the
        # first maximum in row-major order, the double loop's tie-break
        delta = np.triu(sums / np.outer(sizes, sizes), 1)
        flat = int(delta.argmax())
        best = delta.flat[flat]
        if best <= gamma or best <= 0.0:
            break
        i, j = divmod(flat, len(clusters))
        keep = np.r_[0:i, i + 1:j, j + 1:len(clusters)]
        row = (sums[i] + sums[j])[keep]
        sums = np.block([[sums[np.ix_(keep, keep)], row[:, None]],
                         [row[None, :], np.zeros((1, 1))]])
        sizes = np.append(sizes[keep], sizes[i] + sizes[j])
        clusters = [clusters[k] for k in keep] + [sorted(clusters[i] + clusters[j])]
    return sorted(clusters, key=lambda c: c[0])
