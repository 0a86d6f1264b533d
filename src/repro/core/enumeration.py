"""Batched, index-pruned path enumeration and ⊕ concatenation on Spark.

This module is the dataflow core every algorithm shares:

* :func:`enumerate_nodes` — the DataFrame version of procedure ``Search``
  (Alg 1 lines 9-13 / Alg 4 lines 17-24), returning each node's result set
  R. Many HC-s path "nodes" (source, budget, side) are expanded together,
  level-synchronously: one broadcast join per hop with a per-node
  adjacency, which carries the edges a node may take, the Lemma 3.1 bound
  of each and the ``provider`` of a BatchEnum stop rule (closing a prefix
  at that provider's root vertex), and an ``array_contains`` filter for
  simplicity. Every closed prefix is then extended by its provider's paths
  (Alg 4 lines 22-23) in one broadcast join of the closed prefixes (Ψ is
  one link deep), left lazy so that ⊕'s checkpoint runs it.
* :func:`build_allow` — that adjacency pruned by the distance index, built
  on the driver from the collected adjacency, the index maps and the plan;
  :func:`unpruned_adjacency` is the same walk with no pruning and no stops.
* :func:`assemble` — the ⊕ operator (Def 3.1): one broadcast hash join of
  forward half-paths with backward half-paths at the meeting vertex, with
  the duplicate-free split and ``arrays_overlap`` simplicity filter
  described in DESIGN.md §2.

Every step is built from one ``join``, one SQL ``where`` and one
``selectExpr`` per side: Spark plans each DataFrame call afresh, and on
small batches that planning, not the rows, sets the seconds.

Paths are ``array<long>`` columns; ``len`` is the hop count (|path| − 1).
"""
from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.index import Adj, DistMap, bfs_index
from repro.graph.ops import checkpoint_counted, local_frame

if TYPE_CHECKING:
    from repro.core.sharing import ExecPlan


@dataclass(frozen=True)
class HcsNode:
    """One HC-s path query ``q_{root, budget}`` on G (side='F') or G_r ('B')."""

    nid: int
    root: int
    budget: int
    side: str  # 'F' (forward, on G) or 'B' (backward, on G_r)


@dataclass(frozen=True)
class StopRule:
    """While enumerating ``nid``, any arrival at ``stop_v`` is closed by
    concatenating the cached results of ``provider`` (Alg 4 line 22);
    :func:`build_allow` carries it on the node's rows into ``stop_v``."""

    nid: int
    stop_v: int
    provider: int


@dataclass(frozen=True)
class QueryPlan:
    """How one HC-s-t query is assembled from two HC-s nodes: forward node
    ``fnid`` contributes prefixes up to ``a`` hops, backward node ``bnid``
    suffixes up to ``k − a`` hops."""

    qid: int
    s: int
    t: int
    k: int
    a: int
    fnid: int
    bnid: int


@dataclass
class EnumStats:
    """Work accounting of :func:`enumerate_nodes`: rows produced by
    expansion joins (hardware-neutral cost; see DESIGN.md §3 'Hardware'),
    the prefixes among them closed at a provider's root (the rows its attach
    round starts from), and hop rounds."""

    expanded_rows: int = 0
    closed_rows: int = 0
    levels: int = 0


def no_paths(spark: SparkSession) -> DataFrame:
    """The empty ``(qid, path)`` answer of a batch with nothing to assemble."""
    return local_frame(spark, [], "qid long, path array<long>")


_ADJ_SCHEMA = "nid long, src long, dst long, allow int, provider long"


def _reach_edges(node: HcsNode, adj: Adj, radj: Adj) -> Iterator[tuple[int, int, int]]:
    """``(u, v, dist(root, u))`` for every edge ``u → v`` of the node's side
    graph (``adj`` for F, ``radj`` for B) with ``dist(root, u) < budget``."""
    graph = adj if node.side == "F" else radj
    for u, d in bfs_index(graph, [node.root], node.budget - 1)[node.root].items():
        if d < node.budget:  # a budget-0 node keeps its root at 0 and takes no edge
            for v in graph.get(u, ()):
                yield u, v, d


def pruned_adjacency(
    plan: ExecPlan, adj: Adj, radj: Adj, dist_from_s: DistMap, dist_to_t: DistMap
) -> list[tuple[int, int, int, int, int | None]]:
    """The ``(nid, src, dst, allow, provider)`` rows of :func:`build_allow`,
    built without Spark.

    ``allow(nid, v)`` is the max of ``cap − dist(v, t)`` over the node's
    prune pairs ``(nid, t, cap)``: Lemma 3.1, with the consumer-slack
    telescoping of DESIGN.md §2, admits extending a prefix of ``len`` hops
    by ``v`` iff ``len + 1 ≤ allow``. ``dist`` is read from ``dist_to_t``
    (= ``dist_G(·, t)``) for forward nodes and from ``dist_from_s`` (=
    ``dist_{G_r}(·, s)``) for backward ones. A node keeps the edges ``u →
    v`` on its reach with ``dist(root, u) + 1 ≤ allow(nid, v)``: exact,
    since a prefix that reaches ``u`` has at least ``dist(root, u)`` hops.
    So a node without prune pairs keeps no edge and expands only its seed.
    ``provider`` is set on a consumer's rows into a stop rule's ``stop_v``,
    so an arrival the table admits there closes.
    """
    pairs: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for nid, t, cap in plan.prune_pairs:
        pairs[nid].append((t, cap))
    provider = {(s.nid, s.stop_v): s.provider for s in plan.stops}
    rows = []
    for node in plan.nodes:
        far = dist_to_t if node.side == "F" else dist_from_s
        caps = [(far.get(t, {}), cap) for t, cap in pairs[node.nid]]
        allow: dict[int, int] = {}
        for u, v, d in _reach_edges(node, adj, radj):
            if v not in allow:
                allow[v] = max((cap - to_t[v] for to_t, cap in caps if v in to_t), default=0)
            if d + 1 <= allow[v]:
                rows.append((node.nid, u, v, allow[v], provider.get((node.nid, v))))
    return rows


def build_allow(
    spark: SparkSession,
    plan: ExecPlan,
    adj: Adj,
    radj: Adj,
    dist_from_s: DistMap,
    dist_to_t: DistMap,
) -> DataFrame:
    """The plan's per-node pruned adjacency (:func:`pruned_adjacency`) as a
    local relation: the table :func:`enumerate_nodes` joins on every hop."""
    rows = pruned_adjacency(plan, adj, radj, dist_from_s, dist_to_t)
    return local_frame(spark, rows, _ADJ_SCHEMA)


def unpruned_adjacency(
    spark: SparkSession, nodes: list[HcsNode], adj: Adj, radj: Adj
) -> DataFrame:
    """Every edge on each node's reach with ``allow = budget`` and no
    provider: the full HC-s path sets, without index pruning or stops (the
    KSP baselines)."""
    rows = [(n.nid, u, v, n.budget, None)
            for n in nodes for u, v, _ in _reach_edges(n, adj, radj)]
    return local_frame(spark, rows, _ADJ_SCHEMA)


def enumerate_nodes(
    spark: SparkSession,
    nodes: list[HcsNode],
    padj: DataFrame,
    *,
    stats: EnumStats | None = None,
) -> DataFrame:
    """The result set R of every node in ``nodes`` (both sides batched
    together): Alg 4's ``Search``, stop and concatenation included.

    ``padj`` is a per-node adjacency ``(nid, src, dst, allow, provider)``
    (:func:`build_allow` or :func:`unpruned_adjacency`): a node's prefix
    ending at ``src`` is extended by an edge of its own rows iff ``len <
    budget``, ``len + 1 ≤ allow`` and ``dst`` is not on the prefix. A kept
    extension whose row names a ``provider`` is closed there: it is not
    extended further, and once the hop loop ends it is concatenated with
    the provider's paths (Alg 4 lines 22-23).

    Returns ``(nid, path, last, len)``: the zero-length seed and every open
    row of each node, plus each closed prefix ``p`` joined with the open
    rows ``c`` of its provider on ``p.provider = c.nid``, keeping cached
    paths of ``c.len ≤ p.budget − p.len`` hops (the consumer's budget,
    carried on the row) that do not revisit the prefix. Ψ is one link deep,
    so a provider never stops and all its rows are open: one round finishes
    every closed prefix, and each path splits uniquely at the first stop
    vertex it reaches, so no path is produced twice.

    The open rows are a union of materialized inputs (the seeds over a
    local relation and each hop's checkpoint), so they are not copied
    again. The attach broadcasts the closed rows, the small side, and is
    left lazy: it starts no Spark job, and the job that reads the result
    (⊕'s checkpoint) also runs its broadcast. When nothing closed there is
    no join at all.
    """
    stats = stats if stats is not None else EnumStats()

    # Both directions run in ONE level-synchronous loop: the adjacency is
    # keyed by node, so a hop is one broadcast join of the frontier with it,
    # one Spark job per hop regardless of direction mix, with no per-hop
    # shuffle. Each hop's new rows are checkpointed once; that checkpoint's
    # job also counts the rows and the closed ones (an observation), and
    # the frontier and the running result union read it. The adjacency's
    # ``provider`` is renamed ``stop`` so that the frontier can keep its own.
    padj = F.broadcast(
        padj.selectExpr("nid", "src AS last", "dst", "allow", "provider AS stop")
    )
    frontier = local_frame(
        spark,
        [(n.nid, n.root, n.budget) for n in nodes],
        "nid long, root long, budget int",
    ).selectExpr(
        "nid", "array(root) AS path", "root AS last", "0 AS len", "budget",
        "CAST(NULL AS BIGINT) AS provider",
    )
    expanded = frontier
    closed_rows = 0
    for _ in range(max((n.budget for n in nodes), default=0)):
        new = (
            frontier.join(padj, ["nid", "last"])
            .where("len < budget AND len + 1 <= allow AND NOT array_contains(path, dst)")
            .selectExpr(
                "nid", "array_append(path, dst) AS path", "dst AS last",
                "CAST(len + 1 AS INT) AS len", "budget", "stop AS provider",
            )
        )
        new, seen = checkpoint_counted(new, closed=F.count("provider"))
        stats.levels += 1
        if seen["rows"] == 0:
            break
        stats.expanded_rows += seen["rows"]
        closed_rows += seen["closed"]
        expanded = expanded.unionByName(new)
        frontier = new.where("provider IS NULL")
    stats.closed_rows += closed_rows

    paths = expanded.where("provider IS NULL").select("nid", "path", "last", "len")
    if not closed_rows:
        return paths
    closed = F.broadcast(expanded.where("provider IS NOT NULL").alias("p"))
    attached = (
        closed.join(expanded.alias("c"), F.expr("p.provider = c.nid"))
        .where(
            "c.len <= p.budget - p.len"
            " AND NOT arrays_overlap(p.path, slice(c.path, 2, c.len))"
        )
        .selectExpr(
            "p.nid", "concat(p.path, slice(c.path, 2, c.len)) AS path",
            "c.last AS last", "CAST(p.len + c.len AS INT) AS len",
        )
    )
    return paths.unionByName(attached)


def assemble(
    spark: SparkSession,
    paths: DataFrame,
    plans: list[QueryPlan],
) -> DataFrame:
    """⊕-concatenate half-paths into final HC-s-t paths (Def 3.1).

    ``paths`` holds the materialized HC-s results of every node referenced
    by ``plans`` (forward paths on G keyed ``fnid``, backward paths on G_r
    keyed ``bnid``). Output: ``(qid, path)`` with ``path`` the full vertex
    array from s to t. One broadcast hash join, duplicate-free per DESIGN.md
    §2: a forward row joins the backward suffixes that end at its last
    vertex, filtered for vertex-disjointness, if it has exactly ``a`` hops
    (a path of ≥ ``a`` hops splits there) or 1 ≤ hops < ``a`` and ends at
    t. The only backward path ending at its own root t is the zero-length
    ``[t]``, so such a row comes out unchanged. A backward row is kept if
    the path it ends has ``a + len`` hops in ``1..k``: no query has a 0-hop
    answer, and with ``a = 0`` the two zero-length seeds would meet in one
    when s = t.

    The backward side is broadcast as ``(bqid, btail, blast)``, its path
    already reversed and stripped of the meeting vertex, so ⊕ has no
    shuffle. It is broadcast whichever side is larger: the ``⁺`` split and
    DkSP can make it the larger one.
    """
    if not plans:
        return no_paths(spark)
    plan_df = F.broadcast(
        local_frame(
            spark,
            [(p.qid, p.s, p.t, p.k, p.a, p.fnid, p.bnid) for p in plans],
            "qid long, s long, t long, k int, a int, fnid long, bnid long",
        )
    )
    # a shared forward node may hold rows longer than ``a``: they split at
    # ``a`` like every other path, so the short rows stop below ``a``
    fwd = (
        paths.join(plan_df, F.expr("nid = fnid"))
        .where("len = a OR (len BETWEEN 1 AND a - 1 AND last = t)")
        .selectExpr("qid", "path AS fpath", "last AS flast")
    )
    bwd = (
        paths.join(plan_df, F.expr("nid = bnid"))
        .where("a + len BETWEEN 1 AND k")
        .selectExpr("qid AS bqid", "slice(reverse(path), 2, len) AS btail", "last AS blast")
    )
    return (
        fwd.join(F.broadcast(bwd), F.expr("qid = bqid AND flast = blast"))
        .where("NOT arrays_overlap(fpath, btail)")
        .selectExpr("qid", "concat(fpath, btail) AS path")
    )


def paths_as_strings(result: DataFrame) -> DataFrame:
    """(qid, path_s) with the vertex array rendered ``v0-v1-…`` — the
    orderable form both Spark and the DuckDB oracle can sort and diff."""
    return result.select(
        "qid", F.concat_ws("-", F.col("path")).alias("path_s")
    )
