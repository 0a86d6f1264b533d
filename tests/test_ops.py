"""Graph ops: sampling, adjacency collection."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.graph.ops import (
    collect_adjacency,
    reverse_adjacency,
    sample_vertices,
)


def endpoint_set(edges):
    """Distinct vertices incident to at least one edge."""
    rows = edges.collect()
    return {r["src"] for r in rows} | {r["dst"] for r in rows}


class TestSampleVertices:
    def test_full_sample_is_identity(self, tiny_edges):
        assert sample_vertices(tiny_edges, 100).count() == tiny_edges.count()

    @pytest.mark.parametrize("pct", [20, 40, 60, 80])
    def test_monotone_in_pct(self, small_edges, pct):
        lo = sample_vertices(small_edges, pct).count()
        hi = sample_vertices(small_edges, pct + 20).count()
        assert lo <= hi

    def test_vertex_induced(self, small_edges):
        sub = sample_vertices(small_edges, 50)
        kept = endpoint_set(sub)
        assert kept <= endpoint_set(small_edges)

    def test_deterministic(self, small_edges):
        a = sorted(map(tuple, sample_vertices(small_edges, 40).collect()))
        b = sorted(map(tuple, sample_vertices(small_edges, 40).collect()))
        assert a == b

    def test_invalid_pct(self, tiny_edges):
        with pytest.raises(ValueError):
            sample_vertices(tiny_edges, 0)
        with pytest.raises(ValueError):
            sample_vertices(tiny_edges, 101)


class TestAdjacency:
    def test_collect_matches_edges(self, paper_edges, paper_adj):
        assert collect_adjacency(paper_edges) == paper_adj

    def test_reverse_adjacency(self, paper_adj):
        radj = reverse_adjacency(paper_adj)
        assert 0 in radj[1] and 2 in radj[1] and 5 in radj[1]
        # edge count preserved
        assert sum(map(len, radj.values())) == sum(map(len, paper_adj.values()))

    def test_sorted_neighbours(self, tiny_adj):
        for vs in tiny_adj.values():
            assert vs == sorted(vs)
