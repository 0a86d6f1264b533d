"""Distance index (Alg 1 lines 1-2): one BFS per root, on the driver.

The paper builds ``dist_G(s, v)`` for every source ``s ∈ S`` and
``dist_{G_r}(t, v)`` for every target ``t ∈ T`` with the multi-source BFS of
[36]. Here :func:`bfs_index` walks the driver-side adjacency that the run
collects once (``graph.ops.collect_adjacency``; Alg 3 reads it too): the
index is small (≤ |roots| × k-hop-reach entries), and a Spark BFS would
re-broadcast the whole edge table on every level to spare no driver memory.

:func:`bidirectional_index` returns both halves as local frames, and
:func:`collect_dists`, their only reader, turns each back into the
``{root: {v: dist}}`` maps that Γ/μ, Alg 3 detection, the Lemma 3.1 pruned
adjacency (``enumeration.build_allow``) and the ``⁺`` split counts
(:func:`index_counts`) derive from.
"""
from __future__ import annotations

from collections import Counter

from pyspark.sql import DataFrame, SparkSession

from repro.graph.ops import local_frame

Adj = dict[int, list[int]]
DistMap = dict[int, dict[int, int]]  # root -> vertex -> dist


def bfs_index(adj: dict[int, list[int]], roots: list[int], k_max: int) -> DistMap:
    """``{root: {v: dist}}`` for every distinct root: the hop distance from
    the root to each vertex within ``k_max`` hops of ``adj``, the root
    itself at 0 (also when it has no entry in ``adj``)."""
    out: DistMap = {}
    for root in sorted(set(roots)):
        dist = {root: 0}
        frontier = [root]
        for depth in range(1, k_max + 1):
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in dist:
                        dist[v] = depth
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        out[root] = dist
    return out


def bidirectional_index(
    spark: SparkSession,
    adj: dict[int, list[int]],
    radj: dict[int, list[int]],
    s_roots: list[int],
    t_roots: list[int],
    k_max: int,
) -> tuple[DataFrame, DataFrame]:
    """Both index halves — ``(root, v, dist)`` frames of ``dist_G(s, ·)``
    for the distinct ``s_roots`` over ``adj`` and ``dist_{G_r}(t, ·)`` for
    the distinct ``t_roots`` over ``radj``, up to ``k_max`` hops (Alg 1/4
    lines 1-2). Local relations: building and reading them starts no job,
    except that an empty half (a batch with no queries) is a ``range(0)``
    frame (``graph.ops.local_frame``), whose read is one job."""
    fwd = bfs_index(adj, s_roots, k_max)
    bwd = bfs_index(radj, t_roots, k_max)
    return _frame(spark, fwd), _frame(spark, bwd)


def _frame(spark: SparkSession, dists: DistMap) -> DataFrame:
    rows = [(root, v, d) for root, reach in dists.items() for v, d in reach.items()]
    return local_frame(spark, rows, "root long, v long, dist int")


def index_counts(dists: DistMap) -> dict[int, dict[int, int]]:
    """Per-root frontier sizes ``{root: {dist: #vertices}}`` of collected
    index maps (:func:`collect_dists`).

    Feeds the ``⁺`` variants' cost-based forward/backward budget split
    (DESIGN.md §2, "optimized search order").
    """
    return {root: dict(Counter(reach.values())) for root, reach in dists.items()}


def collect_dists(index: DataFrame) -> DistMap:
    """Driver-side ``{root: {v: dist}}`` of one index half: the form every
    consumer of the index reads (see the module docstring)."""
    out: DistMap = {}
    for root, v, dist in index.collect():
        out.setdefault(root, {})[v] = dist
    return out
