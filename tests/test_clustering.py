"""ClusterQuery (Algorithm 2) unit tests — driver-side, no Spark needed."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.clustering import cluster_queries
from repro.core.similarity import group_similarity


def loop_cluster_queries(
    mu: dict[tuple[int, int], float], qids: list[int], gamma: float
) -> list[list[int]]:
    """Alg 2 as a double loop that recomputes δ (Def 4.6) for every cluster
    pair on every merge: the reference ``cluster_queries`` must match."""
    clusters: list[list[int]] = [[q] for q in sorted(qids)]
    while len(clusters) > 1:
        best, bi, bj = 0.0, -1, -1
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = group_similarity(mu, clusters[i], clusters[j])
                if d > best:
                    best, bi, bj = d, i, j
        if best <= gamma or bi < 0:
            break
        merged = sorted(clusters[bi] + clusters[bj])
        clusters = [c for idx, c in enumerate(clusters) if idx not in (bi, bj)]
        clusters.append(merged)
    return sorted((sorted(c) for c in clusters), key=lambda c: c[0])


# Multiples of 1/8: every δ sum is exact in binary floating point, so the
# two summation orders agree bit for bit and every tie is a real tie.
DYADIC = [i / 8 for i in range(9)]


@st.composite
def mu_batches(draw):
    qids = draw(st.lists(st.integers(0, 99), unique=True, max_size=40))
    pairs = list(itertools.combinations(sorted(qids), 2))
    if draw(st.booleans()):
        vals = [draw(st.sampled_from(DYADIC))] * len(pairs)
    else:
        vals = draw(st.lists(st.sampled_from(DYADIC), min_size=len(pairs),
                             max_size=len(pairs)))
    return dict(zip(pairs, vals)), qids


@settings(max_examples=300, deadline=None)
@given(mu_batches(), st.sampled_from([0.0, 0.5, 1.0]))
@example(({(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}, [2, 0, 1]), 0.5)
@example(({(a, b): 1.0 for a, b in itertools.combinations(range(40), 2)},
          list(range(40))), 0.5)
@example(({(a, b): 0.625 for a, b in itertools.combinations(range(12), 2)},
          list(range(12))), 0.0)
def test_matches_double_loop(batch, gamma):
    """Identical clusters to the double loop: all-equal μ (every pair ties),
    μ exactly at γ (never merged), |Q| from 0 to 40, γ ∈ {0, 0.5, 1}."""
    mu, qids = batch
    assert cluster_queries(mu, qids, gamma) == loop_cluster_queries(mu, qids, gamma)


def full_mu(vals: dict[tuple[int, int], float], qids) -> dict:
    mu = {}
    for a, b in itertools.combinations(sorted(qids), 2):
        mu[(a, b)] = vals.get((a, b), 0.0)
    return mu


class TestClusterQueries:
    def test_all_dissimilar_stays_singleton(self):
        mu = full_mu({}, range(4))
        assert cluster_queries(mu, list(range(4)), 0.5) == [[0], [1], [2], [3]]

    def test_one_similar_pair_merges(self):
        mu = full_mu({(1, 2): 0.9}, range(4))
        assert cluster_queries(mu, list(range(4)), 0.5) == [[0], [1, 2], [3]]

    def test_chain_merge(self):
        mu = full_mu({(0, 1): 0.9, (1, 2): 0.9, (0, 2): 0.9}, range(3))
        assert cluster_queries(mu, [0, 1, 2], 0.5) == [[0, 1, 2]]

    def test_threshold_exact_boundary_not_merged(self):
        # Alg 2 merges only when sim > γ, not ≥.
        mu = full_mu({(0, 1): 0.5}, range(2))
        assert cluster_queries(mu, [0, 1], 0.5) == [[0], [1]]

    def test_gamma_one_never_merges(self):
        mu = full_mu({(0, 1): 1.0}, range(2))
        # μ ≤ 1 and merge needs > γ = 1
        assert cluster_queries(mu, [0, 1], 1.0) == [[0], [1]]

    def test_gamma_zero_merges_any_positive(self):
        mu = full_mu({(0, 1): 0.01}, range(3))
        assert cluster_queries(mu, [0, 1, 2], 0.0) == [[0, 1], [2]]

    def test_group_average_blocks_merge(self):
        # 0-1 similar, 2 similar to 1 but not 0; averaging keeps 2 out at
        # a high γ.
        mu = full_mu({(0, 1): 0.95, (1, 2): 0.8}, range(3))
        assert cluster_queries(mu, [0, 1, 2], 0.6) == [[0, 1], [2]]

    def test_group_average_allows_merge(self):
        mu = full_mu({(0, 1): 0.95, (1, 2): 0.8, (0, 2): 0.7}, range(3))
        assert cluster_queries(mu, [0, 1, 2], 0.6) == [[0, 1, 2]]

    def test_partition_property(self):
        mu = full_mu({(0, 1): 0.9, (2, 3): 0.9, (4, 5): 0.2}, range(6))
        clusters = cluster_queries(mu, list(range(6)), 0.5)
        flat = sorted(q for c in clusters for q in c)
        assert flat == list(range(6))

    def test_empty(self):
        assert cluster_queries({}, [], 0.5) == []

    def test_singleton(self):
        assert cluster_queries({}, [7], 0.5) == [[7]]

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_monotone_cluster_count_in_gamma(self, gamma):
        vals = {(0, 1): 0.9, (1, 2): 0.6, (2, 3): 0.4, (0, 3): 0.2}
        mu = full_mu(vals, range(4))
        lo = cluster_queries(mu, list(range(4)), gamma)
        hi = cluster_queries(mu, list(range(4)), min(1.0, gamma + 0.2))
        assert len(lo) <= len(hi)

    def test_paper_example_clustering(self, spark, paper_adj, paper_radj):
        from repro.core.index import bidirectional_index, collect_dists
        from repro.core.similarity import pairwise_mu
        from tests.test_similarity import PAPER_Q

        fwd, bwd = bidirectional_index(
            spark, paper_adj, paper_radj,
            [q.s for q in PAPER_Q], [q.t for q in PAPER_Q], 5,
        )
        mu = pairwise_mu(collect_dists(fwd), collect_dists(bwd), PAPER_Q)
        # Example 4.1 (γ = 0.8): {q0, q1, q2} and {q3, q4}
        assert cluster_queries(mu, [0, 1, 2, 3, 4], 0.8) == [[0, 1, 2], [3, 4]]
