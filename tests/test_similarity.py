"""Similarity (Defs 4.4-4.6): μ math, Γ membership from the collected index,
and the paper's Example 4.1 values."""
from __future__ import annotations

import math

import pytest

from repro.core import ref_engine as ref
from repro.core.index import collect_dists, multi_source_bfs
from repro.core.queries import Query
from repro.core.similarity import (
    batch_similarity,
    gamma_sets,
    group_similarity,
    mu_from_coeffs,
    pairwise_mu,
)
from repro.graph.ops import reverse_edges

PAPER_Q = [
    Query(0, 0, 11, 5),
    Query(1, 2, 13, 5),
    Query(2, 5, 12, 5),
    Query(3, 4, 14, 4),
    Query(4, 9, 14, 3),
]


class TestMuFromCoeffs:
    def test_both_full_overlap(self):
        assert mu_from_coeffs(1.0, 1.0) == 1.0

    def test_zero_forward(self):
        assert mu_from_coeffs(0.0, 1.0) == 0.0

    def test_zero_backward(self):
        assert mu_from_coeffs(0.7, 0.0) == 0.0

    def test_harmonic_mean(self):
        assert mu_from_coeffs(0.5, 1.0) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("cf", [0.1, 0.4, 0.9, 1.0])
    @pytest.mark.parametrize("cb", [0.2, 0.6, 1.0])
    def test_bounds(self, cf, cb):
        assert 0.0 <= mu_from_coeffs(cf, cb) <= 1.0

    def test_symmetric(self):
        assert mu_from_coeffs(0.3, 0.8) == mu_from_coeffs(0.8, 0.3)


@pytest.fixture(scope="module")
def paper_mu(spark, paper_edges):
    fwd = multi_source_bfs(spark, paper_edges, [q.s for q in PAPER_Q], 5)
    bwd = multi_source_bfs(spark, reverse_edges(paper_edges), [q.t for q in PAPER_Q], 5)
    return pairwise_mu(collect_dists(fwd), collect_dists(bwd), PAPER_Q)


class TestPaperExample41:
    """Example 4.1's numbers on the reconstructed Fig. 1 graph."""

    def test_mu_q3_q4_is_one(self, paper_mu):
        assert paper_mu[(3, 4)] == pytest.approx(1.0)

    def test_mu_q0_q1_high(self, paper_mu):
        # paper: 0.93 (second-largest pair similarity)
        assert paper_mu[(0, 1)] == pytest.approx(0.93, abs=0.02)

    def test_mu_q2_vs_group2_zero(self, paper_mu):
        # Γ_r(q2) ∩ Γ_r(q3/q4) = ∅ → μ = 0 (footnote semantics)
        assert paper_mu[(2, 3)] == 0.0
        assert paper_mu[(2, 4)] == 0.0

    def test_all_bounds(self, paper_mu):
        assert all(0.0 <= v <= 1.0 for v in paper_mu.values())

    def test_group1_vs_group2_below_gamma(self, paper_mu):
        d = group_similarity(paper_mu, [0, 1, 2], [3, 4])
        assert d < 0.8  # paper reports 0.64; reconstruction gives ~0.6

    def test_q2_joins_group1(self, paper_mu):
        assert group_similarity(paper_mu, [2], [0, 1]) > 0.8


class TestGammaMembers:
    def test_matches_ref_reach_sets(self, spark, paper_edges, paper_adj):
        fwd = multi_source_bfs(spark, paper_edges, [q.s for q in PAPER_Q], 5)
        by_q = gamma_sets(collect_dists(fwd), PAPER_Q, by_target=False)
        for q in PAPER_Q:
            assert by_q[q.qid] == set(ref.reach_set(paper_adj, q.s, q.k)), q

    def test_gamma_q3_paper_listing(self, spark, paper_edges):
        fwd = multi_source_bfs(spark, paper_edges, [4], 4)
        got = gamma_sets(collect_dists(fwd), [Query(3, 4, 14, 4)], by_target=False)[3]
        # Example 4.1: Γ(q3) = {v4,v9,v3,v8,v15,v6,v11,v13,v14}
        assert got == {4, 9, 3, 8, 15, 6, 11, 13, 14}

    def test_gamma_q4_paper_listing(self, spark, paper_edges):
        fwd = multi_source_bfs(spark, paper_edges, [9], 3)
        got = gamma_sets(collect_dists(fwd), [Query(4, 9, 14, 3)], by_target=False)[4]
        assert got == {9, 3, 8, 15, 6, 11, 13, 14}


class TestBatchSimilarity:
    def test_single_query_zero(self):
        assert batch_similarity({}, 1) == 0.0

    def test_average(self):
        mu = {(0, 1): 1.0, (0, 2): 0.5, (1, 2): 0.0}
        assert batch_similarity(mu, 3) == pytest.approx(0.5)

    def test_paper_batch(self, paper_mu):
        v = batch_similarity(paper_mu, 5)
        assert 0.0 < v < 1.0 and not math.isnan(v)


class TestGroupSimilarity:
    def test_singletons_equal_mu(self, paper_mu):
        assert group_similarity(paper_mu, [0], [1]) == paper_mu[(0, 1)]

    def test_symmetric(self, paper_mu):
        assert group_similarity(paper_mu, [0, 1], [3, 4]) == pytest.approx(
            group_similarity(paper_mu, [3, 4], [0, 1])
        )

    def test_unordered_key_lookup(self):
        mu = {(0, 1): 0.4}
        assert group_similarity(mu, [1], [0]) == 0.4
