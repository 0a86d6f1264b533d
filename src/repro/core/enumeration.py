"""Batched, index-pruned path enumeration and ⊕ concatenation on Spark.

This module is the dataflow core every algorithm shares:

* :func:`enumerate_nodes` — the DataFrame version of procedure ``Search``
  (Alg 1 lines 9-13 / Alg 4 lines 17-24). Many HC-s path "nodes" (source,
  budget, side) are expanded together, level-synchronously: one join with
  the edge table per hop, one broadcast join with the distance index for
  Lemma 3.1 pruning, an ``array_contains`` filter for simplicity, and —
  for BatchEnum — a stop-table join that closes a prefix at a provider's
  root vertex.
* :func:`attach_cached` — BatchEnum's cache concatenation (Alg 4 lines
  22-23): the closed prefixes are extended by their provider's paths, one
  topological level of Ψ at a time.
* :func:`assemble` — the ⊕ operator (Def 3.1) joining forward half-paths
  with backward half-paths at the meeting vertex, with the duplicate-free
  split and ``arrays_overlap`` simplicity filter described in DESIGN.md §2.

Paths are ``array<long>`` columns; ``len`` is the hop count (|path| − 1).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.ops import checkpoint_counted, local_frame


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
    concatenating the cached results of ``provider`` (Alg 4 line 22)."""

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
    cost; see DESIGN.md §3 'Hardware') and cache-concatenation rows."""

    expanded_rows: int = 0
    closed_rows: int = 0
    levels: int = 0
    # nodes with at least one closed prefix: the consumers attach_cached joins
    closers: set[int] = field(default_factory=set, compare=False)


_EMPTY_SCHEMA = (
    "nid long, path array<long>, last long, len int, budget int, provider long"
)


def empty_paths(spark: SparkSession) -> DataFrame:
    return spark.createDataFrame([], _EMPTY_SCHEMA)


def no_paths(spark: SparkSession) -> DataFrame:
    """The empty ``(qid, path)`` answer of a batch with nothing to assemble."""
    return spark.createDataFrame([], "qid long, path array<long>")


def _allow_table(
    spark: SparkSession,
    prune_pairs: list[tuple[int, int, int]],
    dist_index: DataFrame,
) -> DataFrame:
    """Per (nid, v): max hops a prefix may already have and still extend to v.

    A prune pair ``(nid, t, cap)`` admits extending a prefix of node-local
    length ``len`` by vertex ``v`` iff ``len + 1 + dist(v, t) ≤ cap``
    (Lemma 3.1 with the consumer-slack telescoping of DESIGN.md §2), i.e.
    ``len + 1 ≤ cap − dist(v, t)``. ``allow(nid, v)`` is the max of
    ``cap − dist`` over the node's pairs; vertices with no index entry for
    any paired target (unreachable, dist = ∞) get no row and are pruned by
    the inner join.
    """
    pairs = local_frame(spark, prune_pairs, "nid long, t long, cap long")
    return (
        pairs.join(dist_index, pairs["t"] == dist_index["root"])
        .select("nid", "v", (F.col("cap") - F.col("dist")).alias("slack"))
        .groupBy("nid", "v")
        .agg(F.max("slack").alias("allow"))
    )


def build_allow(
    spark: SparkSession,
    nodes: list[HcsNode],
    prune_pairs: list[tuple[int, int, int]],
    dist_fwd: DataFrame,
    dist_bwd: DataFrame,
) -> DataFrame | None:
    """Materialize the per-(nid, v) pruning table for a whole plan once.

    Forward nodes are pruned by ``dist_G(·, t)`` (the backward index);
    backward nodes by ``dist_{G_r}(·, s)`` (the forward index). Rows for
    nodes not present in a given enumeration level are inert (the join is
    keyed on nid), so one table serves every level of a BatchEnum run.
    """
    fwd_nids = {n.nid for n in nodes if n.side == "F"}
    fwd_pairs = [p for p in prune_pairs if p[0] in fwd_nids]
    bwd_pairs = [p for p in prune_pairs if p[0] not in fwd_nids]
    allows = []
    if fwd_pairs:
        allows.append(_allow_table(spark, fwd_pairs, dist_bwd))
    if bwd_pairs:
        allows.append(_allow_table(spark, bwd_pairs, dist_fwd))
    if not allows:
        return None
    allow = allows[0]
    for a in allows[1:]:
        allow = allow.unionByName(a)
    return allow.localCheckpoint(eager=True)


def enumerate_nodes(
    spark: SparkSession,
    edges_fwd: DataFrame,
    edges_bwd: DataFrame,
    nodes: list[HcsNode],
    prune_pairs: list[tuple[int, int, int]],
    dist_fwd: DataFrame,
    dist_bwd: DataFrame,
    *,
    stops: list[StopRule] | None = None,
    stats: EnumStats | None = None,
    allow: DataFrame | None = None,
) -> DataFrame:
    """Materialize the path sets of ``nodes`` (both sides batched together).

    ``dist_fwd`` holds ``dist_G(root, ·)`` (prunes *backward* nodes, whose
    targets are sources on G); ``dist_bwd`` holds ``dist_{G_r}(root, ·)`` =
    ``dist_G(·, root)`` (prunes forward nodes). ``prune_pairs`` are
    ``(nid, target_root, cap)`` rows — for a forward node the targets are
    HC-s-t targets ``t`` with caps per DESIGN.md §2; symmetric for backward.
    A prefix that reaches a ``stops`` vertex is closed there: it is kept
    with its ``provider`` set and is not extended further (see
    :func:`attach_cached`).

    Returns ``(nid, path, last, len, budget, provider)`` including the
    zero-length seed path of every node, materialized by one final
    ``localCheckpoint``; ``provider`` is null on every open row.
    """
    if not nodes:
        return empty_paths(spark)
    stats = stats if stats is not None else EnumStats()

    # Both directions run in ONE level-synchronous loop: the edge tables are
    # tagged with the side they serve and broadcast, and every frontier row
    # carries its node's side — one Spark job per hop regardless of
    # direction mix. The map-side (broadcast) join removes per-hop shuffles.
    # Each hop's new rows are checkpointed once, with the stop split already
    # joined in; that checkpoint's job also counts the rows (an observation),
    # and the frontier and the running result union read it.
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
    if allow is None:
        allow = build_allow(spark, nodes, prune_pairs, dist_fwd, dist_bwd)
    if allow is not None:
        allow = F.broadcast(allow)
    has_pairs_nids = {p[0] for p in prune_pairs}
    unpruned = [n.nid for n in nodes if n.nid not in has_pairs_nids]

    stop_df = None
    if stops:
        node_nids = {n.nid for n in nodes}
        node_stops = [(s.nid, s.stop_v, s.provider) for s in stops if s.nid in node_nids]
        if node_stops:
            stop_df = F.broadcast(
                local_frame(spark, node_stops, "nid long, stop_v long, provider long")
            )

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
        if allow is not None:
            if unpruned:
                # nodes with no prune pairs (e.g. KSP baselines) bypass the
                # allow join entirely
                pruned_part = cand.where(~F.col("nid").isin(unpruned)).join(
                    allow.withColumnRenamed("v", "dst"), ["nid", "dst"]
                ).where(F.col("len") + 1 <= F.col("allow")).drop("allow")
                cand = pruned_part.unionByName(
                    cand.where(F.col("nid").isin(unpruned))
                )
            else:
                cand = cand.join(
                    allow.withColumnRenamed("v", "dst"), ["nid", "dst"]
                ).where(F.col("len") + 1 <= F.col("allow"))
        new = cand.select(
            "nid",
            F.expr("array_append(path, dst)").alias("path"),
            F.col("dst").alias("last"),
            (F.col("len") + 1).cast("int").alias("len"),
            "side",
            "budget",
        )
        aggs = {}
        if stop_df is None:
            new = new.select("*", no_provider)
        else:
            new = new.join(
                stop_df,
                (new["nid"] == stop_df["nid"]) & (new["last"] == stop_df["stop_v"]),
                "left",
            ).select(new["nid"], "path", "last", "len", "side", "budget", "provider")
            aggs["closed"] = F.count("provider")
            aggs["closers"] = F.collect_set(
                F.when(F.col("provider").isNotNull(), F.col("nid"))
            )
        new, seen = checkpoint_counted(new, **aggs)
        stats.levels += 1
        if seen["rows"] == 0:
            break
        stats.expanded_rows += seen["rows"]
        results = results.unionByName(new.select(cols))
        if stop_df is not None:
            stats.closed_rows += seen["closed"]
            stats.closers.update(seen["closers"])
            new = new.where(F.col("provider").isNull())
        frontier = new
    return results.localCheckpoint(eager=True)


def attach_cached(
    expanded: DataFrame,
    topo_levels: list[list[HcsNode]],
    stops: list[StopRule],
    closers: set[int],
) -> DataFrame:
    """Extend every closed prefix of ``expanded`` by its provider's cached
    paths (Alg 4 lines 22-23); returns ``(nid, path, last, len)``.

    ``expanded`` is :func:`enumerate_nodes` output over all of Ψ; its open
    rows start the cache R. Only the concatenation is ordered: for each
    topological level past the first whose consumers (``closers``) closed
    a prefix, R[provider] is joined to their closed rows, keeping cached
    paths of ``clen ≤ budget − len`` hops that do not revisit the prefix.
    Each level's attachment is checkpointed once and joins R before the
    next level, so a provider that is itself a consumer is complete when
    it is read.
    """
    cols = ["nid", "path", "last", "len"]
    paths = expanded.where(F.col("provider").isNull()).select(cols)
    closed = expanded.where(F.col("provider").isNotNull())
    for level in topo_levels[1:]:
        nids = sorted(n.nid for n in level if n.nid in closers)
        if not nids:
            continue
        providers = sorted({s.provider for s in stops if s.nid in nids})
        cache = paths.where(F.col("nid").isin(providers)).select(
            F.col("nid").alias("provider"),
            F.col("path").alias("cpath"),
            F.col("len").alias("clen"),
            F.col("last").alias("clast"),
        )
        attached = (
            closed.where(F.col("nid").isin(nids))
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
        paths = paths.unionByName(attached.localCheckpoint(eager=True))
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
    array from s to t. Duplicate-free split per DESIGN.md §2:

    * 1 ≤ hops < a → forward path already ending at t (the zero-length
      seed ends at t only when s = t, and no query has a 0-hop answer);
    * hops ≥ a → forward prefix of exactly ``a`` hops ⋈ backward suffix
      (including the zero-length ``[t]``) on the meeting vertex, filtered
      for vertex-disjointness.
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
    part1 = fwd.where(
        (F.col("flen") >= 1)
        & (F.col("flen") < F.col("a"))
        & (F.col("flast") == F.col("t"))
    ).select("qid", F.col("fpath").alias("path"))

    fexact = fwd.where(F.col("flen") == F.col("a"))
    bwd = paths.join(plan_df, paths["nid"] == plan_df["bnid"]).select(
        F.col("qid").alias("bqid"),
        (F.col("k") - F.col("a")).alias("b"),
        F.col("path").alias("bpath"),
        F.col("last").alias("blast"),
        F.col("len").alias("blen"),
    ).where(F.col("blen") <= F.col("b"))
    part2 = (
        fexact.join(
            bwd,
            (fexact["qid"] == bwd["bqid"]) & (fexact["flast"] == bwd["blast"]),
        )
        .withColumn("btail", F.expr("slice(reverse(bpath), 2, blen)"))
        .where(~F.expr("arrays_overlap(fpath, btail)"))
        .select("qid", F.expr("concat(fpath, btail)").alias("path"))
    )
    return part1.unionByName(part2)


def paths_as_strings(result: DataFrame) -> DataFrame:
    """(qid, path_s) with the vertex array rendered ``v0-v1-…`` — the
    orderable form both Spark and the DuckDB oracle can sort and diff."""
    return result.select(
        "qid", F.concat_ws("-", F.col("path")).alias("path_s")
    )
