"""Synthetic dataset generators and Table I statistics."""
from __future__ import annotations

import pytest

from repro.graph.generators import (
    BENCH_DATASETS,
    DATASETS,
    GraphSpec,
    dataset,
    edges_from_list,
    graph_stats,
    paper_example_edges,
    powerlaw_edges,
)


class TestPowerlawEdges:
    def test_deterministic(self):
        spec = DATASETS["TINY"]
        a, b = powerlaw_edges(spec), powerlaw_edges(spec)
        assert a.equals(b)

    def test_seed_changes_graph(self):
        spec = DATASETS["TINY"]
        other = GraphSpec("X", spec.n, spec.m, spec.alpha_out, spec.alpha_in, 999)
        assert not powerlaw_edges(spec).equals(powerlaw_edges(other))

    def test_no_self_loops(self):
        pdf = powerlaw_edges(DATASETS["SMALL"])
        assert (pdf.src != pdf.dst).all()

    def test_no_duplicate_edges(self):
        pdf = powerlaw_edges(DATASETS["SMALL"])
        assert not pdf.duplicated().any()

    def test_vertex_ids_in_range(self):
        spec = DATASETS["TINY"]
        pdf = powerlaw_edges(spec)
        assert pdf.src.between(0, spec.n - 1).all()
        assert pdf.dst.between(0, spec.n - 1).all()

    def test_edge_count_near_target(self):
        spec = DATASETS["EP"]
        pdf = powerlaw_edges(spec)
        assert 0.5 * spec.m <= len(pdf) <= spec.m

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_all_specs_generate(self, name):
        spec = DATASETS[name]
        if spec.n > 25_000:
            pytest.skip("large spec covered by the table1/exp5_scalability presets")
        pdf = powerlaw_edges(spec)
        assert len(pdf) > 0

    def test_skew_orders_dmax(self):
        """Higher zipf alpha should produce a heavier hub than alpha≈0."""
        hub = powerlaw_edges(GraphSpec("H", 2000, 20000, 1.1, 1.1, 5))
        flat = powerlaw_edges(GraphSpec("F", 2000, 20000, 0.05, 0.05, 5))
        dmax = lambda pdf: max(  # noqa: E731
            pdf.src.value_counts().max(), pdf.dst.value_counts().max()
        )
        assert dmax(hub) > 2 * dmax(flat)


class TestRegistry:
    def test_bench_subset_exists(self):
        assert set(BENCH_DATASETS) <= set(DATASETS)

    def test_relative_ordering_matches_paper(self):
        # |E|: EP < SL < BS < TW (as in Table I)
        sizes = {n: len(powerlaw_edges(DATASETS[n])) for n in ("EP", "SL", "BS")}
        assert sizes["EP"] < sizes["SL"] < sizes["BS"]

    def test_unknown_dataset_raises(self, spark):
        with pytest.raises(KeyError):
            dataset(spark, "NOPE")


class TestSparkEdges:
    def test_dataset_schema(self, spark):
        df = dataset(spark, "TINY")
        assert [f.name for f in df.schema.fields] == ["src", "dst"]
        assert all(f.dataType.typeName() == "long" for f in df.schema.fields)

    def test_edges_from_list(self, spark):
        df = edges_from_list(spark, [(1, 2), (2, 3)])
        assert df.count() == 2


class TestPaperExample:
    def test_edge_count(self, paper_pdf):
        assert len(paper_pdf) == 22

    def test_q0_paths(self, paper_adj):
        from repro.core.ref_engine import enum_st_paths

        assert enum_st_paths(paper_adj, 0, 11, 5) == {
            (0, 1, 7, 10, 12, 11),
            (0, 4, 9, 3, 6, 11),
            (0, 4, 9, 15, 6, 11),
        }

    def test_fig2_distance_index(self, paper_radj):
        """Fig 2(b): dist(v, v14) entries v6=1, v3=2, v15=2, v9=3, v4=4."""
        from repro.core.ref_engine import bfs_dists

        d = bfs_dists(paper_radj, 14, 4)
        assert d[6] == 1 and d[3] == 2 and d[15] == 2 and d[9] == 3 and d[4] == 4
        assert 8 not in d  # v8 cannot reach v14 (Example 3.1's ∞ prune)


class TestGraphStats:
    def test_tiny_stats(self, tiny_edges, tiny_pdf):
        st = graph_stats(tiny_edges)
        assert st["E"] == len(tiny_pdf)
        assert st["V"] <= DATASETS["TINY"].n
        assert st["d_avg"] == round(st["E"] / st["V"], 1)
        assert st["d_max"] >= st["d_avg"]

    def test_paper_graph_stats(self, spark, paper_edges):
        st = graph_stats(paper_edges)
        assert st["V"] == 16 and st["E"] == 22
