"""Workload generator tests (reachability guarantee, share knob, determinism)."""
from __future__ import annotations

import pytest

from repro.core import ref_engine as ref
from repro.core.queries import Query, gen_queries


class TestGenQueries:
    def test_deterministic(self, tiny_adj):
        a = gen_queries(tiny_adj, 8, seed=3)
        b = gen_queries(tiny_adj, 8, seed=3)
        assert a == b

    def test_seed_varies(self, tiny_adj):
        assert gen_queries(tiny_adj, 8, seed=3) != gen_queries(tiny_adj, 8, seed=4)

    def test_count(self, small_adj):
        assert len(gen_queries(small_adj, 25, seed=0)) == 25

    def test_qids_sequential(self, tiny_adj):
        qs = gen_queries(tiny_adj, 10, seed=1)
        assert [q.qid for q in qs] == list(range(10))

    def test_k_in_range(self, small_adj):
        for q in gen_queries(small_adj, 30, k_range=(4, 7), seed=2):
            assert 4 <= q.k <= 7

    def test_s_not_t(self, small_adj):
        for q in gen_queries(small_adj, 30, seed=5):
            assert q.s != q.t

    def test_target_reachable_within_k(self, tiny_adj):
        for q in gen_queries(tiny_adj, 15, k_range=(3, 5), seed=6):
            d = ref.bfs_dists(tiny_adj, q.s, q.k)
            assert q.t in d, q

    @pytest.mark.parametrize("share", [0.0, 0.5, 0.9])
    def test_share_values_generate(self, tiny_adj, share):
        qs = gen_queries(tiny_adj, 12, share=share, seed=8)
        assert len(qs) == 12

    def test_share_increases_duplication(self, small_adj):
        lo = gen_queries(small_adj, 40, share=0.0, seed=9)
        hi = gen_queries(small_adj, 40, share=0.9, seed=9)
        n_endpoints = lambda qs: len({(q.s, q.t) for q in qs})  # noqa: E731
        assert n_endpoints(hi) < n_endpoints(lo)

    def test_share_raises_batch_similarity(self, spark, small_adj, small_radj):
        from repro.core.index import bidirectional_index, collect_dists
        from repro.core.similarity import batch_similarity, pairwise_mu

        def mu_q(share):
            qs = gen_queries(small_adj, 12, k_range=(3, 4), share=share, seed=11)
            k = max(q.k for q in qs)
            fwd, bwd = bidirectional_index(
                spark, small_adj, small_radj,
                [q.s for q in qs], [q.t for q in qs], k,
            )
            mu = pairwise_mu(collect_dists(fwd), collect_dists(bwd), qs)
            return batch_similarity(mu, len(qs))

        assert mu_q(0.9) > mu_q(0.0)

    def test_no_outedges_raises(self):
        with pytest.raises(ValueError):
            gen_queries({}, 5)

    def test_query_frozen(self):
        q = Query(0, 1, 2, 3)
        with pytest.raises(Exception):
            q.k = 4  # type: ignore[misc]
