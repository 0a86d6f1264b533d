"""Unit tests for the pure-Python reference engine (itself the oracle for
the Spark implementations, so it gets hand-verified cases of its own)."""
from __future__ import annotations

import itertools

import pytest

from repro.core import ref_engine as ref

# Hand-checkable micro graphs.
CHAIN = {0: [1], 1: [2], 2: [3], 3: [4]}
DIAMOND = {0: [1, 2], 1: [3], 2: [3], 3: []}
CYCLE = {0: [1], 1: [2], 2: [0]}
GRID = {0: [1, 2], 1: [3], 2: [3], 3: [4, 5], 4: [6], 5: [6], 6: []}
SELF_BRANCH = {0: [1, 2], 1: [0, 2], 2: [1]}


class TestBfsDists:
    def test_chain(self):
        assert ref.bfs_dists(CHAIN, 0, 10) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_chain_capped(self):
        assert ref.bfs_dists(CHAIN, 0, 2) == {0: 0, 1: 1, 2: 2}

    def test_diamond(self):
        assert ref.bfs_dists(DIAMOND, 0, 5) == {0: 0, 1: 1, 2: 1, 3: 2}

    def test_cycle(self):
        assert ref.bfs_dists(CYCLE, 0, 9) == {0: 0, 1: 1, 2: 2}

    def test_unreachable_absent(self):
        assert 4 not in ref.bfs_dists(DIAMOND, 1, 9)

    def test_source_only(self):
        assert ref.bfs_dists({}, 7, 3) == {7: 0}

    def test_cap_zero(self):
        assert ref.bfs_dists(CHAIN, 0, 0) == {0: 0}


class TestReachSet:
    def test_includes_source(self):
        assert 0 in ref.reach_set(CHAIN, 0, 1)

    def test_chain_k2(self):
        assert ref.reach_set(CHAIN, 0, 2) == {0, 1, 2}

    def test_matches_bfs(self):
        for k in range(5):
            assert ref.reach_set(GRID, 0, k) == set(ref.bfs_dists(GRID, 0, k))


class TestEnumStPaths:
    def test_chain_exact(self):
        assert ref.enum_st_paths(CHAIN, 0, 4, 4) == {(0, 1, 2, 3, 4)}

    def test_chain_too_short_budget(self):
        assert ref.enum_st_paths(CHAIN, 0, 4, 3) == set()

    def test_diamond_two_paths(self):
        assert ref.enum_st_paths(DIAMOND, 0, 3, 2) == {(0, 1, 3), (0, 2, 3)}

    def test_grid_four_paths(self):
        got = ref.enum_st_paths(GRID, 0, 6, 4)
        assert len(got) == 4
        assert all(p[0] == 0 and p[-1] == 6 for p in got)

    def test_simplicity_in_cycle(self):
        # 0->1->2->0 would repeat 0; only direct arcs qualify.
        assert ref.enum_st_paths(CYCLE, 0, 2, 9) == {(0, 1, 2)}

    def test_no_path_through_target(self):
        # paths must end at t the first time it is reached
        adj = {0: [1], 1: [2], 2: [3], 3: []}
        assert ref.enum_st_paths(adj, 0, 1, 5) == {(0, 1)}

    def test_s_equals_t_empty(self):
        assert ref.enum_st_paths(CYCLE, 0, 0, 5) == set()

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_nonpositive_k_empty(self, k):
        # a path has at least one hop: k ≤ 0 bounds every path away
        adj = {0: [1, 2], 1: [2, 3], 2: [3]}
        assert len(ref.enum_st_paths(adj, 0, 3, 3)) == 3
        assert ref.enum_st_paths(adj, 0, 3, k) == set()
        assert ref.enum_st_paths(adj, 0, 1, k) == set()

    @pytest.mark.parametrize("k", range(1, 6))
    def test_monotone_in_k(self, k):
        assert ref.enum_st_paths(GRID, 0, 6, k) <= ref.enum_st_paths(GRID, 0, 6, k + 1)

    def test_hop_bound_respected(self):
        for p in ref.enum_st_paths(SELF_BRANCH, 0, 2, 2):
            assert len(p) - 1 <= 2


class TestEnumHcsPaths:
    def test_includes_zero_length(self):
        assert (0,) in ref.enum_hcs_paths(CHAIN, 0, 3)

    def test_chain_budget2(self):
        assert ref.enum_hcs_paths(CHAIN, 0, 2) == {(0,), (0, 1), (0, 1, 2)}

    def test_prefix_closed(self):
        paths = ref.enum_hcs_paths(GRID, 0, 4)
        for p in paths:
            for i in range(1, len(p)):
                assert p[:i] in paths

    def test_all_simple(self):
        for p in ref.enum_hcs_paths(SELF_BRANCH, 0, 3):
            assert len(set(p)) == len(p)

    def test_budget_zero(self):
        assert ref.enum_hcs_paths(DIAMOND, 0, 0) == {(0,)}


def _radj(adj):
    out = {}
    for u, vs in adj.items():
        for v in vs:
            out.setdefault(v, []).append(u)
    return out


class TestPathenumRef:
    @pytest.mark.parametrize("adj", [CHAIN, DIAMOND, GRID, CYCLE, SELF_BRANCH])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_equals_naive_all_pairs(self, adj, k):
        radj = _radj(adj)
        verts = sorted(set(adj) | {v for vs in adj.values() for v in vs})
        for s, t in itertools.permutations(verts, 2):
            assert ref.pathenum_ref(adj, radj, s, t, k) == ref.enum_st_paths(
                adj, s, t, k
            ), (s, t, k)

    def test_paper_graph_q0(self, paper_adj, paper_radj):
        got = ref.pathenum_ref(paper_adj, paper_radj, 0, 11, 5)
        assert got == {
            (0, 1, 7, 10, 12, 11),
            (0, 4, 9, 3, 6, 11),
            (0, 4, 9, 15, 6, 11),
        }

    def test_paper_graph_q1(self, paper_adj, paper_radj):
        got = ref.pathenum_ref(paper_adj, paper_radj, 2, 13, 5)
        assert got == {
            (2, 1, 7, 10, 12, 13),
            (2, 4, 9, 3, 6, 13),
            (2, 4, 9, 15, 6, 13),
        }

    def test_paper_graph_q3(self, paper_adj, paper_radj):
        got = ref.pathenum_ref(paper_adj, paper_radj, 4, 14, 4)
        assert got == {(4, 9, 3, 6, 14), (4, 9, 15, 6, 14)}

    def test_random_pairs_on_tiny(self, tiny_adj, tiny_radj):
        verts = sorted(tiny_adj)
        for s in verts[:6]:
            for t in verts[6:12]:
                if s == t:
                    continue
                for k in (2, 4):
                    assert ref.pathenum_ref(
                        tiny_adj, tiny_radj, s, t, k
                    ) == ref.enum_st_paths(tiny_adj, s, t, k)


class TestBasicBatchRef:
    def test_matches_per_query(self, paper_adj, paper_radj):
        from repro.core.queries import Query

        qs = [Query(0, 0, 11, 5), Query(1, 4, 14, 4)]
        got = ref.basic_batch_ref(paper_adj, paper_radj, qs)
        assert set(got) == {0, 1}
        assert got[0] == ref.enum_st_paths(paper_adj, 0, 11, 5)
        assert got[1] == ref.enum_st_paths(paper_adj, 4, 14, 4)
