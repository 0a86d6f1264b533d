"""Batch-latency benchmark: BatchEnum (Alg 4) against BasicEnum (Alg 1).

One client keeps one batch in flight (a closed loop). For a workload and a
seed it builds the graph and the query batch, warms up, then times
``run_batch`` (γ = 0.5, defaults) and ``run_basic`` (defaults) one batch at
a time, and checks every answer against the naive DFS
(``ref_engine.enum_st_paths``), path set for path set.

The oracle runs in its own process (see ``oracle.py``).

With ``trace=True`` the timed loop alternates untraced and traced batches;
the traced ones give the per-layer metrics (see ``spans.py``).
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.basic_enum import run_basic
from repro.core.batch_enum import run_batch
from repro.core.queries import gen_queries
from repro.graph.generators import dataset
from repro.graph.ops import collect_adjacency

import spans as tr
from oracle import Oracle

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 3
# Warm-up: one untimed BatchEnum run over the whole batch. A fresh JVM runs
# the first batch ~45% slower than later ones on wt-wide-q150 (JIT). After
# this warm-up the next three rounds of both algorithms stayed within ±4%
# of each other, and in a ten-round probe the rounds after the first stayed
# within about ±7% (BatchEnum) and ±12% (BasicEnum) of their median, with no
# trend. A warm-up over only the batch's first 10 queries, even followed by
# a whole BasicEnum run, left the first timed BatchEnum run ~20% slow.


@dataclass(frozen=True)
class Workload:
    graph: str
    n_queries: int
    k_range: tuple[int, int]
    share: float
    min_dist: int


# Sized so that one run (JVM start, set-up, warm-up, timed batches) takes
# about a minute. Both batches have few rows, so a batch's time is mostly
# Spark's per-job cost, and BatchEnum's job count follows the number of Ψ
# levels; these sizes keep that count nearly fixed across seeds. Over seeds
# 1-40, 150 queries with share 0.7 gave 3 levels on 36 seeds (2 on three,
# 4 on one); 20 random queries gave 1 level on each of seeds 1-12. With 200
# queries and share 0.6, or 30 random ones, the count, and with it
# BatchEnum's time, moved by 25-50% between seeds; on SL, or with k ≥ 4,
# the Ψ depth moved even more.
WORKLOADS = {
    # sharing used: ~30 clusters, Ψ with edges in 3 levels
    "wt-wide-q150": Workload("WT", 150, (3, 3), 0.7, 3),
    # sharing bypassed: random queries, one cluster per query, Ψ in 1 level
    "wt-random-q20": Workload("WT", 20, (3, 3), 0.0, 3),
    # for the smoke test only; not a benchmark workload
    "tiny": Workload("TINY", 8, (3, 4), 0.5, 2),
}
ALGOS = {"batch": run_batch, "basic": run_basic}


# --- measurement helpers ---------------------------------------------------

class RssPeak:
    """Peak resident set of this process, sampled while inside ``with``."""

    INTERVAL_S = 0.01

    def __init__(self) -> None:
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _rss(self) -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * self._page

    def _loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.INTERVAL_S):
            self.peak = max(self.peak, self._rss())

    def __enter__(self) -> "RssPeak":
        self._stop = threading.Event()
        self.peak = max(self.peak, self._rss())
        self._thread = threading.Thread(target=self._loop, args=(self._stop,))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())


def setup(spark, wl: Workload, seed: int):
    """Graph (generated, cached, counted), its adjacency and the batch."""
    edges = dataset(spark, wl.graph).cache()
    edges.count()
    adj = collect_adjacency(edges)
    queries = gen_queries(adj, wl.n_queries, k_range=wl.k_range,
                          share=wl.share, min_dist=wl.min_dist, seed=seed)
    return edges, adj, queries


def fingerprint(adj, queries) -> dict[str, str]:
    """Hashes that show two commits ran identical inputs."""
    edges = sorted((u, v) for u, vs in adj.items() for v in vs)
    digest = lambda x: hashlib.sha256(repr(x).encode()).hexdigest()[:16]  # noqa: E731
    return {"edges_sha": digest(edges),
            "queries_sha": digest([(q.qid, q.s, q.t, q.k) for q in queries])}


def settle(spark) -> None:
    """Collect the previous batch's garbage before the next batch is timed.

    A full GC in Python and in the JVM, so that no batch pays for the one
    before it. The JVM collection also lets Spark's context cleaner drop the
    cached and checkpointed blocks of frames the previous batch left behind.
    """
    gc.collect()
    spark.sparkContext._jvm.System.gc()


# --- the benchmark ---------------------------------------------------------

class _Runner:
    """Runs one algorithm over the batch and checks every answer."""

    def __init__(self, spark, edges, queries, oracle) -> None:
        self.spark, self.edges, self.queries, self.oracle = spark, edges, queries, oracle
        self.attempted = self.failed = 0
        self.extras: dict = {}

    def __call__(self, algo: str, ctx=None) -> tuple[float, object]:
        """Time one batch inside ``ctx``, then check it outside the timing.

        A batch that raises fails every answer in it; its time is the wait
        until the error, which is what the client saw.
        """
        self.attempted += len(self.queries)
        res = None
        settle(self.spark)
        with ctx if ctx is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                res = ALGOS[algo](self.spark, self.edges, self.queries)
            except Exception as e:
                print(f"[perfbench] {algo} batch raised {type(e).__name__}: {e}",
                      file=sys.stderr, flush=True)
            dt = time.perf_counter() - t0
        if res is None:
            self.failed += len(self.queries)
        else:
            self.failed += len(self.oracle.failures(res.results))
            if algo == "batch":
                self.extras = res.extras
        return dt, res


def _traced(run: _Runner, tracer: tr.Tracer, algo: str, run_id: str):
    """One traced batch: its wall seconds and its per-layer metrics."""
    tracer.install()
    try:
        dt, res = run(algo, tracer.span(tr.ROOT, ALGOS[algo].__name__, run_id))
    finally:
        tracer.uninstall()
    if res is None:
        raise RuntimeError(f"traced {algo} batch failed")
    n_jobs = tracer.run_spans(run_id)[0].submitted
    if tracer.read_jobs(run_id) != n_jobs:
        raise RuntimeError(f"{algo}: the spans' job groups hold "
                           f"{tracer.read_jobs(run_id)} of {n_jobs} jobs")
    metrics = tr.layer_metrics(tracer, run_id, algo, res)
    metrics[f"{algo}.jobs"] = n_jobs
    return dt, metrics


def measure(spark, wl: Workload, seed: int, seconds: float, trace: bool,
            trace_out: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (contract result, reference fields)."""
    setup_s = []
    edges = None
    for _ in range(SETUP_REPEATS):
        if edges is not None:
            edges.unpersist()
        t0 = time.perf_counter()
        edges, adj, queries = setup(spark, wl, seed)
        setup_s.append(time.perf_counter() - t0)

    with contextlib.closing(Oracle(adj, queries)) as oracle:
        t0 = time.perf_counter()
        run_batch(spark, edges, queries)
        warm_s = time.perf_counter() - t0
        run = _Runner(spark, edges, queries, oracle)

        timed = {a: [] for a in ALGOS}
        traced = {a: [] for a in ALGOS}
        layers = {a: [] for a in ALGOS}
        rss = RssPeak()
        tracer = tr.Tracer(spark)
        t_start = time.perf_counter()
        n_runs = 0
        while True:
            for algo in ALGOS:
                timed[algo].append(run(algo, rss)[0])
            for algo in ALGOS if trace else ():
                dt, m = _traced(run, tracer, algo, f"{algo}-{n_runs}")
                traced[algo].append(dt)
                layers[algo].append(m)
            n_runs += 1
            if time.perf_counter() - t_start >= seconds:
                break

    n_paths = run.extras.get("n_paths", 0)
    if trace:
        metrics = {}
        for algo in ALGOS:
            metrics.update({k: statistics.median(m[k] for m in layers[algo])
                            for k in layers[algo][0]})
            metrics[f"{algo}.trace_overhead_s"] = (
                statistics.median(traced[algo]) - statistics.median(timed[algo]))
        rows = metrics["batch.enumeration.expand.rows"]
        base = metrics["basic.enumeration.expand.rows"]
        metrics["batch.paths_per_row"] = n_paths / rows if rows else 0.0
        metrics["batch.work_ratio"] = rows / base if base else 0.0
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            trace_out.write_text("".join(json.dumps(sp.to_json(i)) + "\n"
                                         for i, sp in enumerate(tracer.spans)))
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "batch_enum_s": statistics.median(timed["batch"]),
            "basic_enum_s": statistics.median(timed["basic"]),
            "driver_rss_mb": rss.peak / 2**20,
        }

    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    info = {
        "seed": seed,
        **fingerprint(adj, queries),
        "n_queries": len(queries),
        "mu_q": run.extras.get("mu_q"),
        "n_clusters": run.extras.get("n_clusters"),
        "n_paths": n_paths,
        "ref_dfs_s": oracle.seconds,
        "n_runs": n_runs,
        "failed_frac": run.failed / run.attempted,
        "setup_runs_s": setup_s,
        "warmup_s": warm_s,
        "timed_s": timed,
    }
    return result, info
