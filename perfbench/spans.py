"""Outside-in span recorder for one algorithm run (the per-layer trace).

Each layer's public functions are wrapped where their caller looks them up,
so nothing under ``src/`` changes. A span records its layer name, start,
end, parent span and run id. While a span is the innermost open one, Spark
jobs run in the span's own job group and the seconds spent inside DataFrame
actions are charged to it. Spark is lazy, so work is charged to the span
that forces it; that is why every layer also reports its self time.

Counts are taken after the run, outside every span, from the values the
wrapped functions returned and from frames that are already checkpointed,
so the trace adds no job inside any span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

# (module where the caller looks the name up, attribute, layer)
WRAPPED = [
    ("repro.core.index", "bidirectional_index", "index"),
    ("repro.core.index", "collect_dists", "index_collect"),
    ("repro.core.batch_enum", "pairwise_mu", "similarity"),
    ("repro.core.batch_enum", "cluster_queries", "clustering"),
    ("repro.core.batch_enum", "collect_adjacency", "ops"),
    ("repro.core.batch_enum", "reverse_adjacency", "ops"),
    ("repro.core.batch_enum", "compute_splits", "sharing"),
    ("repro.core.basic_enum", "compute_splits", "sharing"),
    ("repro.core.batch_enum", "build_shared_plan", "sharing"),
    ("repro.core.basic_enum", "build_basic_plan", "sharing"),
    ("repro.core.enumeration", "build_allow", "enumeration.allow"),
    ("repro.core.batch_enum", "enumerate_nodes", "enumeration.expand"),
    ("repro.core.basic_enum", "enumerate_nodes", "enumeration.expand"),
    ("repro.core.batch_enum", "assemble", "enumeration.assemble"),
    ("repro.core.basic_enum", "assemble", "enumeration.assemble"),
]
ROOT = "self"  # the run_batch / run_basic call itself
# Layers each algorithm enters.
LAYERS = {
    "batch": ["index", "index_collect", "similarity", "clustering", "ops",
              "sharing", "enumeration.allow", "enumeration.expand",
              "enumeration.assemble", ROOT],
    "basic": ["index", "sharing", "enumeration.allow", "enumeration.expand",
              "enumeration.assemble", ROOT],
}
# DataFrame methods that run Spark jobs. PySpark 4 dispatches the public
# ``pyspark.sql.DataFrame`` to this class, so patching the public name
# would catch nothing.
DF_CLASS = ("pyspark.sql.classic.dataframe", "DataFrame")
ACTIONS = ("collect", "count", "first", "foreach", "foreachPartition", "head",
           "isEmpty", "localCheckpoint", "checkpoint", "show", "take",
           "toLocalIterator", "toPandas")


def jobs_started(sc) -> int:
    """Spark's job-id counter: how many jobs this context has submitted."""
    return sc._jsc.sc().dagScheduler().nextJobId()


@dataclass
class Span:
    name: str  # the layer
    fn: str  # the wrapped function
    run: str
    parent: int | None
    group: str
    start: float
    end: float = 0.0
    action_s: float = 0.0
    jobs: int = 0  # jobs in this span's own job group
    submitted: int = 0  # root span only: every job Spark started meanwhile
    result: object = None

    def to_json(self, idx: int) -> dict:
        return {"id": idx, "name": self.name, "fn": self.fn, "run": self.run,
                "parent": self.parent, "start": self.start, "end": self.end,
                "action_s": self.action_s, "jobs": self.jobs}


@dataclass
class Tracer:
    """Records spans of traced runs; install() wraps, uninstall() restores."""

    spark: object
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)
    _in_action: bool = False

    def install(self) -> "Tracer":
        for mod_name, attr, layer in WRAPPED:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._wrap_layer(getattr(mod, attr), layer))
        cls = getattr(importlib.import_module(DF_CLASS[0]), DF_CLASS[1])
        for attr in ACTIONS:
            if hasattr(cls, attr):
                self._patch(cls, attr, self._wrap_action(getattr(cls, attr)))
        return self

    def uninstall(self) -> None:
        for owner, attr, had, old in reversed(self._saved):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _patch(self, owner, attr, new) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def span(self, name: str, fn: str, run: str):
        sc = self.spark.sparkContext
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name, fn, run, parent, f"trace-{run}-{idx}", time.perf_counter())
        self.spans.append(sp)
        self._stack.append(idx)
        sc.setJobGroup(sp.group, name)
        j0 = jobs_started(sc)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                outer = self.spans[self._stack[-1]]
                sc.setJobGroup(outer.group, outer.name)
            else:
                sp.submitted = jobs_started(sc) - j0
                sc._jsc.clearJobGroup()

    def _wrap_layer(self, fn, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # called outside a traced run
                return fn(*args, **kwargs)
            run = self.spans[self._stack[0]].run
            with self.span(layer, fn.__name__, run) as sp:
                sp.result = fn(*args, **kwargs)
                return sp.result
        return wrapper

    def _wrap_action(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_action or not self._stack:
                return fn(*args, **kwargs)
            self._in_action = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[self._stack[-1]].action_s += time.perf_counter() - t0
                self._in_action = False
        return wrapper

    def run_spans(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def read_jobs(self, run: str) -> int:
        """Fill each span's job count from its job group; returns the sum."""
        tracker = self.spark.sparkContext.statusTracker()
        for sp in self.run_spans(run):
            sp.jobs = len(tracker.getJobIdsForGroup(sp.group))
        return sum(sp.jobs for sp in self.run_spans(run))


def self_seconds(spans: list[Span], idx: int) -> float:
    """Span duration minus the part of it its child spans cover."""
    sp = spans[idx]
    children = sum(c.end - c.start for c in spans if c.parent == idx)
    return (sp.end - sp.start) - children


def layer_metrics(tracer: Tracer, run: str, algo: str, result) -> dict[str, float]:
    """``<algo>.<layer>.<measure>`` for one traced run, plus the layer counts.

    Runs after the root span has closed: the frame counts below start Spark
    jobs, and they must fall outside every span.
    """
    all_spans = tracer.spans
    ids = [i for i, s in enumerate(all_spans) if s.run == run]
    out: dict[str, float] = {}
    for layer in LAYERS[algo]:
        mine = [i for i in ids if all_spans[i].name == layer]
        out[f"{algo}.{layer}.s"] = sum(all_spans[i].end - all_spans[i].start
                                       for i in mine)
        out[f"{algo}.{layer}.self_s"] = sum(self_seconds(all_spans, i) for i in mine)
        out[f"{algo}.{layer}.jobs"] = sum(all_spans[i].jobs for i in mine)
        out[f"{algo}.{layer}.action_s"] = sum(all_spans[i].action_s for i in mine)
    spans = [all_spans[i] for i in ids]

    def results(fn: str) -> list:
        return [s.result for s in spans if s.fn == fn]

    def rows(frames) -> int:
        return sum(f.count() for f in frames if f is not None)

    out[f"{algo}.index.rows"] = rows(f for r in results("bidirectional_index") for f in r)
    out[f"{algo}.enumeration.allow.rows"] = rows(results("build_allow"))
    plan = (results("build_shared_plan") + results("build_basic_plan"))[0]
    out[f"{algo}.sharing.psi_nodes"] = len(plan.nodes)
    out[f"{algo}.sharing.psi_edges"] = len(plan.edges)
    out[f"{algo}.sharing.psi_levels"] = len(plan.topo_levels)
    out[f"{algo}.sharing.stops"] = len(plan.stops)
    out[f"{algo}.sharing.prune_pairs"] = len(plan.prune_pairs)
    out[f"{algo}.enumeration.expand.calls"] = len(results("enumerate_nodes"))
    out[f"{algo}.enumeration.expand.rows"] = result.stats.expanded_rows
    out[f"{algo}.enumeration.expand.closed_rows"] = result.stats.closed_rows
    out[f"{algo}.enumeration.expand.hops"] = result.stats.levels
    if algo == "batch":
        dists = results("collect_dists")
        out["batch.index_collect.rows"] = sum(len(d) for m in dists for d in m.values())
        out["batch.clustering.clusters"] = len(results("cluster_queries")[0])
        adj = results("collect_adjacency")[0]
        indexed = {v for m in dists for d in m.values() for v in d}
        n_edges = sum(len(vs) for vs in adj.values())
        useful = sum(1 for u, vs in adj.items() if u in indexed
                     for v in vs if v in indexed)
        out["batch.ops.edges_collected"] = n_edges
        out["batch.ops.useful_ratio"] = useful / n_edges if n_edges else 0.0
    return out
