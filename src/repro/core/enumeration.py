"""Batched, index-pruned path enumeration and ⊕ concatenation on Spark.

This module is the dataflow core every algorithm shares:

* :func:`enumerate_nodes` — the DataFrame version of procedure ``Search``
  (Alg 1 lines 9-13 / Alg 4 lines 17-24). Many HC-s path "nodes" (source,
  budget, side) are expanded together, level-synchronously: one join with
  the edge table per hop, one broadcast join with the allow table for
  Lemma 3.1 pruning, and an ``array_contains`` filter for simplicity. The
  allow join also yields the ``provider`` of a BatchEnum stop rule, which
  closes a prefix at that provider's root vertex.
* :func:`build_allow` — the allow table with its stop-rule column, built on
  the driver from the collected distance index maps and the plan.
* :func:`attach_cached` — BatchEnum's cache concatenation (Alg 4 lines
  22-23): every closed prefix is extended by its provider's paths, round
  by round, until no prefix is left closed.
* :func:`assemble` — the ⊕ operator (Def 3.1): one join of forward
  half-paths with backward half-paths at the meeting vertex, with the
  duplicate-free split and ``arrays_overlap`` simplicity filter described
  in DESIGN.md §2.

Paths are ``array<long>`` columns; ``len`` is the hop count (|path| − 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.ops import checkpoint_counted, local_frame

if TYPE_CHECKING:
    from repro.core.sharing import ExecPlan

DistMap = dict[int, dict[int, int]]  # root -> vertex -> dist


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
    :func:`build_allow` carries it on the ``(nid, stop_v)`` row."""

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


def build_allow(
    spark: SparkSession,
    plan: ExecPlan,
    dist_from_s: DistMap,
    dist_to_t: DistMap,
) -> DataFrame | None:
    """The Lemma 3.1 pruning table ``(nid, v, allow, provider)`` for a whole
    plan, built on the driver from the collected index maps; ``None`` iff
    the plan has no ``prune_pairs``.

    A prune pair ``(nid, t, cap)`` admits extending a prefix of node-local
    length ``len`` by vertex ``v`` iff ``len + 1 + dist(v, t) ≤ cap``
    (Lemma 3.1 with the consumer-slack telescoping of DESIGN.md §2), i.e.
    ``len + 1 ≤ cap − dist(v, t)``. ``allow(nid, v)`` is the max of
    ``cap − dist`` over the node's pairs, with ``dist`` read from
    ``dist_to_t`` (= ``dist_G(·, t)``) for forward nodes and from
    ``dist_from_s`` (= ``dist_{G_r}(·, s)``) for backward ones. Only rows
    with ``allow ≥ 1`` are kept: no other row admits an extension, and a
    vertex with no row (unreachable from every paired target within its
    cap) is pruned by the inner join. Rows of nodes absent from an
    enumeration are inert (the join is keyed on nid).

    ``provider`` carries the plan's stop rules: it is set on the
    ``(consumer, stop_v)`` row of each rule and null elsewhere, so an
    arrival the allow join admits at a stop vertex closes there. A stop on
    a vertex without a row could never be reached, so it adds no row.
    """
    if not plan.prune_pairs:
        return None
    fwd_nids = {n.nid for n in plan.nodes if n.side == "F"}
    allow: dict[tuple[int, int], int] = {}
    for nid, t, cap in plan.prune_pairs:
        dists = dist_to_t if nid in fwd_nids else dist_from_s
        for v, d in dists.get(t, {}).items():
            if cap - d > allow.get((nid, v), 0):
                allow[(nid, v)] = cap - d
    provider = {(s.nid, s.stop_v): s.provider for s in plan.stops}
    return local_frame(
        spark,
        [(nid, v, a, provider.get((nid, v))) for (nid, v), a in allow.items()],
        "nid long, v long, allow int, provider long",
    )


def enumerate_nodes(
    spark: SparkSession,
    edges_fwd: DataFrame,
    edges_bwd: DataFrame,
    nodes: list[HcsNode],
    allow: DataFrame | None,
    *,
    stats: EnumStats | None = None,
) -> DataFrame:
    """Materialize the path sets of ``nodes`` (both sides batched together).

    ``allow`` is :func:`build_allow`'s table: an extension of a node's
    prefix to ``v`` is kept iff ``len + 1 ≤ allow(nid, v)``, so a node with
    no rows expands only its seed. A kept extension whose row names a
    ``provider`` is closed there: it is kept with that provider and is not
    extended further (see :func:`attach_cached`). ``None`` expands without
    pruning or stops (the KSP baselines).

    Returns ``(nid, path, last, len, budget, provider)`` including the
    zero-length seed path of every node; ``provider`` is null on every open
    row. The result is a union of materialized inputs (the seeds over a
    local relation and each hop's checkpoint), so it is not copied again.
    """
    if not nodes:
        return empty_paths(spark)
    stats = stats if stats is not None else EnumStats()

    # Both directions run in ONE level-synchronous loop: the edge tables are
    # tagged with the side they serve and broadcast, and every frontier row
    # carries its node's side — one Spark job per hop regardless of
    # direction mix. The map-side (broadcast) join removes per-hop shuffles.
    # Each hop's new rows are checkpointed once; that checkpoint's job also
    # counts the rows and the closed ones (an observation), and the frontier
    # and the running result union read it.
    edges_b = F.broadcast(
        edges_fwd.withColumn("eside", F.lit("F")).unionByName(
            edges_bwd.withColumn("eside", F.lit("B"))
        )
    )
    node_tab = local_frame(
        spark,
        [(n.nid, n.root, n.side, n.budget) for n in nodes],
        "nid long, root long, side string, budget int",
    )
    if allow is not None:
        allow = F.broadcast(allow.withColumnRenamed("v", "dst"))

    cols = ["nid", "path", "last", "len", "budget", "provider"]
    no_provider = F.lit(None).cast("long").alias("provider")
    frontier = node_tab.select(
        "nid",
        F.array("root").alias("path"),
        F.col("root").alias("last"),
        F.lit(0).alias("len"),
        "side",
        "budget",
    )
    results = frontier.select("nid", "path", "last", "len", "budget", no_provider)
    max_budget = max(n.budget for n in nodes)
    for _ in range(max_budget):
        live = frontier.where(F.col("len") < F.col("budget"))
        cand = (
            live.join(
                edges_b,
                (live["side"] == edges_b["eside"]) & (live["last"] == edges_b["src"]),
            )
            .drop("eside")
            .where(~F.expr("array_contains(path, dst)"))
        )
        if allow is None:
            cand = cand.select("*", no_provider)
        else:
            cand = cand.join(allow, ["nid", "dst"]).where(
                F.col("len") + 1 <= F.col("allow")
            )
        new = cand.select(
            "nid",
            F.expr("array_append(path, dst)").alias("path"),
            F.col("dst").alias("last"),
            (F.col("len") + 1).cast("int").alias("len"),
            "side",
            "budget",
            "provider",
        )
        new, seen = checkpoint_counted(new, closed=F.count("provider"))
        stats.levels += 1
        if seen["rows"] == 0:
            break
        stats.expanded_rows += seen["rows"]
        stats.closed_rows += seen["closed"]
        results = results.unionByName(new.select(cols))
        # the next hop's allow join brings its own provider column
        frontier = new.where(F.col("provider").isNull()).drop("provider")
    return results


def attach_cached(expanded: DataFrame, closed_rows: int) -> DataFrame:
    """Extend every closed prefix of ``expanded`` by its provider's cached
    paths (Alg 4 lines 22-23); returns ``(nid, path, last, len)``.

    ``expanded`` is :func:`enumerate_nodes` output over all of Ψ, whose
    ``closed_rows`` rows carry a provider; its open rows are final. Each
    round joins the still-closed rows with ``expanded`` on ``provider =
    nid``, keeping cached paths of ``clen ≤ budget − len`` hops (the
    consumer's budget, carried on the row) that do not revisit the prefix,
    and checkpoints the result once. A result whose cached path was open is
    final; one whose cached path was itself closed ends at that path's
    provider's root and joins again in the next round. Ψ is a DAG, so the
    rounds end after the longest provider chain a closed row follows.

    Each path splits uniquely at the first stop vertex it reaches, so no
    path is produced twice.
    """
    cols = ["nid", "path", "last", "len"]
    paths = expanded.where(F.col("provider").isNull()).select(cols)
    closed = expanded.where(F.col("provider").isNotNull())
    cache = expanded.select(
        F.col("nid").alias("provider"),
        F.col("path").alias("cpath"),
        F.col("len").alias("clen"),
        F.col("last").alias("clast"),
        F.col("provider").alias("cprovider"),
    )
    while closed_rows:
        attached = (
            closed.join(cache, "provider")
            .where(F.col("clen") <= F.col("budget") - F.col("len"))
            .withColumn("ctail", F.expr("slice(cpath, 2, clen)"))
            .where(~F.expr("arrays_overlap(path, ctail)"))
            .select(
                "nid",
                F.expr("concat(path, ctail)").alias("path"),
                F.col("clast").alias("last"),
                (F.col("len") + F.col("clen")).cast("int").alias("len"),
                "budget",
                F.col("cprovider").alias("provider"),
            )
        )
        attached, seen = checkpoint_counted(attached, closed=F.count("provider"))
        paths = paths.unionByName(
            attached.where(F.col("provider").isNull()).select(cols)
        )
        closed = attached.where(F.col("provider").isNotNull())
        closed_rows = seen["closed"]
    return paths


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
