"""Batched, index-pruned path enumeration and ⊕ concatenation on Spark.

This module is the dataflow core every algorithm shares:

* :func:`enumerate_nodes` — the DataFrame version of procedure ``Search``
  (Alg 1 lines 9-13 / Alg 4 lines 17-24). Many HC-s path "nodes" (source,
  budget, side) are expanded together, level-synchronously: one broadcast
  join per hop with a per-node adjacency, which carries the edges a node
  may take, the Lemma 3.1 bound of each and the ``provider`` of a
  BatchEnum stop rule (closing a prefix at that provider's root vertex),
  and an ``array_contains`` filter for simplicity.
* :func:`build_allow` — that adjacency pruned by the distance index, built
  on the driver from the collected adjacency, the index maps and the plan;
  :func:`unpruned_adjacency` is the same walk with no pruning and no stops.
* :func:`attach_cached` — BatchEnum's cache concatenation (Alg 4 lines
  22-23): every closed prefix is extended by its provider's paths in one
  broadcast join of the closed prefixes (Ψ is one link deep).
* :func:`assemble` — the ⊕ operator (Def 3.1): one join of forward
  half-paths with backward half-paths at the meeting vertex, with the
  duplicate-free split and ``arrays_overlap`` simplicity filter described
  in DESIGN.md §2.

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
    """Work accounting: rows produced by expansion joins (hardware-neutral
    cost; see DESIGN.md §3 'Hardware'), the prefixes among them closed at a
    provider's root (the rows :func:`attach_cached` starts from), and hop
    rounds."""

    expanded_rows: int = 0
    closed_rows: int = 0
    levels: int = 0


_EMPTY_SCHEMA = (
    "nid long, path array<long>, last long, len int, budget int, provider long"
)


def empty_paths(spark: SparkSession) -> DataFrame:
    return local_frame(spark, [], _EMPTY_SCHEMA)


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
    """Materialize the path sets of ``nodes`` (both sides batched together).

    ``padj`` is a per-node adjacency ``(nid, src, dst, allow, provider)``
    (:func:`build_allow` or :func:`unpruned_adjacency`): a node's prefix
    ending at ``src`` is extended by an edge of its own rows iff ``len <
    budget``, ``len + 1 ≤ allow`` and ``dst`` is not on the prefix. A kept
    extension whose row names a ``provider`` is closed there: it is kept
    with that provider and is not extended further (see
    :func:`attach_cached`).

    Returns ``(nid, path, last, len, budget, provider)`` including the
    zero-length seed path of every node; ``provider`` is null on every open
    row. The result is a union of materialized inputs (the seeds over a
    local relation and each hop's checkpoint), so it is not copied again.
    """
    if not nodes:
        return empty_paths(spark)
    stats = stats if stats is not None else EnumStats()

    # Both directions run in ONE level-synchronous loop: the adjacency is
    # keyed by node, so a hop is one broadcast join of the frontier with it,
    # one Spark job per hop regardless of direction mix, with no per-hop
    # shuffle. Each hop's new rows are checkpointed once; that checkpoint's
    # job also counts the rows and the closed ones (an observation), and
    # the frontier and the running result union read it.
    padj = F.broadcast(padj.withColumnRenamed("src", "last"))
    node_tab = local_frame(
        spark,
        [(n.nid, n.root, n.budget) for n in nodes],
        "nid long, root long, budget int",
    )
    frontier = node_tab.select(
        "nid",
        F.array("root").alias("path"),
        F.col("root").alias("last"),
        F.lit(0).alias("len"),
        "budget",
    )
    results = frontier.select("*", F.lit(None).cast("long").alias("provider"))
    max_budget = max(n.budget for n in nodes)
    for _ in range(max_budget):
        live = frontier.where(F.col("len") < F.col("budget"))
        new = (
            live.join(padj, ["nid", "last"])
            .where(F.col("len") + 1 <= F.col("allow"))
            .where(~F.expr("array_contains(path, dst)"))
            .select(
                "nid",
                F.expr("array_append(path, dst)").alias("path"),
                F.col("dst").alias("last"),
                (F.col("len") + 1).cast("int").alias("len"),
                "budget",
                "provider",
            )
        )
        new, seen = checkpoint_counted(new, closed=F.count("provider"))
        stats.levels += 1
        if seen["rows"] == 0:
            break
        stats.expanded_rows += seen["rows"]
        stats.closed_rows += seen["closed"]
        results = results.unionByName(new)
        # the next hop's join brings its own provider column
        frontier = new.where(F.col("provider").isNull()).drop("provider")
    return results


def attach_cached(expanded: DataFrame, closed_rows: int) -> DataFrame:
    """Extend every closed prefix of ``expanded`` by its provider's cached
    paths (Alg 4 lines 22-23); returns ``(nid, path, last, len)``.

    ``expanded`` is :func:`enumerate_nodes` output over all of Ψ, whose
    ``closed_rows`` rows carry a provider; its open rows are final. Ψ is one
    link deep, so a provider never stops and all its rows are open: one
    round finishes every closed prefix. The round broadcasts the closed rows
    and joins them with ``expanded`` on ``provider = nid``, keeping cached
    paths of ``clen ≤ budget − len`` hops (the consumer's budget, carried on
    the row) that do not revisit the prefix, and checkpoints the result
    once, because ⊕ reads the union twice: 2 Spark jobs (the broadcast and
    the checkpoint), none when no row is closed. The closed side is the
    small one: it holds only the prefixes that closed at a stop vertex.

    Each path splits uniquely at the first stop vertex it reaches, so no
    path is produced twice.
    """
    cols = ["nid", "path", "last", "len"]
    paths = expanded.where(F.col("provider").isNull()).select(cols)
    if not closed_rows:
        return paths
    cache = expanded.select(
        F.col("nid").alias("provider"),
        F.col("path").alias("cpath"),
        F.col("len").alias("clen"),
        F.col("last").alias("clast"),
    )
    attached = (
        F.broadcast(expanded.where(F.col("provider").isNotNull()))
        .join(cache, "provider")
        .where(F.col("clen") <= F.col("budget") - F.col("len"))
        .withColumn("ctail", F.expr("slice(cpath, 2, clen)"))
        .where(~F.expr("arrays_overlap(path, ctail)"))
        .select(
            "nid",
            F.expr("concat(path, ctail)").alias("path"),
            F.col("clast").alias("last"),
            (F.col("len") + F.col("clen")).cast("int").alias("len"),
        )
    )
    return paths.unionByName(attached.localCheckpoint(eager=True))


def assemble(
    spark: SparkSession,
    paths: DataFrame,
    plans: list[QueryPlan],
) -> DataFrame:
    """⊕-concatenate half-paths into final HC-s-t paths (Def 3.1).

    ``paths`` holds the materialized HC-s results of every node referenced
    by ``plans`` (forward paths on G keyed ``fnid``, backward paths on G_r
    keyed ``bnid``). Output: ``(qid, path)`` with ``path`` the full vertex
    array from s to t. One join, duplicate-free per DESIGN.md §2: a
    forward row joins the backward suffixes that end at its last vertex,
    filtered for vertex-disjointness, if it has exactly ``a`` hops (a path
    of ≥ ``a`` hops splits there) or 1 ≤ hops < ``a`` and ends at t. The
    only backward path ending at its own root t is the zero-length ``[t]``,
    so such a row comes out unchanged (the zero-length forward seed ends at
    t only when s = t, and no query has a 0-hop answer).
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
    fwd = paths.join(plan_df, paths["nid"] == plan_df["fnid"]).select(
        "qid", "t", "a", "k",
        F.col("path").alias("fpath"),
        F.col("last").alias("flast"),
        F.col("len").alias("flen"),
    )
    # a shared forward node may hold rows longer than ``a``: they split at
    # ``a`` like every other path, so the short rows stop below ``a``
    fsplit = fwd.where(
        (F.col("flen") == F.col("a"))
        | (F.col("flen").between(1, F.col("a") - 1) & (F.col("flast") == F.col("t")))
    )
    bwd = paths.join(plan_df, paths["nid"] == plan_df["bnid"]).select(
        F.col("qid").alias("bqid"),
        (F.col("k") - F.col("a")).alias("b"),
        F.col("path").alias("bpath"),
        F.col("last").alias("blast"),
        F.col("len").alias("blen"),
    ).where(F.col("blen") <= F.col("b"))
    return (
        fsplit.join(
            bwd,
            (fsplit["qid"] == bwd["bqid"]) & (fsplit["flast"] == bwd["blast"]),
        )
        .withColumn("btail", F.expr("slice(reverse(bpath), 2, blen)"))
        .where(~F.expr("arrays_overlap(fpath, btail)"))
        .select("qid", F.expr("concat(fpath, btail)").alias("path"))
    )


def paths_as_strings(result: DataFrame) -> DataFrame:
    """(qid, path_s) with the vertex array rendered ``v0-v1-…`` — the
    orderable form both Spark and the DuckDB oracle can sort and diff."""
    return result.select(
        "qid", F.concat_ws("-", F.col("path")).alias("path_s")
    )
