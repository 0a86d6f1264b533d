"""Batch-latency benchmark command.

    python3 perfbench/run.py --workload wt-wide-q150 --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds nothing: the program is the Python
package under ``src/``. Prints the metrics as ``name value unit`` lines, a
JSON line of reference fields (input fingerprints, naive-DFS floor, warm-up
times), and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``BENCHMARK.json`` with ``--trace 1``.

Spark runs as one local driver with two task threads (at most ``nproc``)
and the test suite's session settings (64 shuffle partitions, no automatic
broadcast joins, Arrow on).
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import shlex
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"  # spans, Spark scratch and temp files; never committed
DRIVER_MEM = "2g"
PR_SET_CHILD_SUBREAPER = 36
STOP_GRACE_S = 30.0


def adopt_descendants() -> None:
    """Make every process orphaned below this one a child of it (Linux).

    The Spark JVM starts Python workers of its own; once the JVM has ended
    they become children of this process, so ``stop_children`` stops and
    waits for them too.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list[int]:
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            kids.append(int(entry))
    return kids


def stop_children() -> None:
    """SIGTERM every child, SIGKILL those still there after STOP_GRACE_S,
    and reap them until this process has no child left."""
    deadline = time.monotonic() + STOP_GRACE_S
    signalled: set[int] = set()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        late = time.monotonic() > deadline
        for pid in _children():
            if late or pid not in signalled:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
                signalled.add(pid)
        time.sleep(0.05)


def session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # Two task threads leave the other cores to the driver and to the Python
    # workers Spark starts for frames made from local lists. With a thread
    # per core the same runs spread 3-4 times wider.
    threads = min(2, len(os.sched_getaffinity(0)))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{threads}] --driver-memory {DRIVER_MEM} "
        f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={tmp}')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )

    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    # A terminated run still stops Spark, the oracle process and every
    # process either of them started, and waits for each to end.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    adopt_descendants()
    spark = None
    try:
        t0 = time.perf_counter()
        spark = session()
        session_s = time.perf_counter() - t0
        out = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        result, info = bench.measure(
            spark, bench.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), trace_out=out if args.trace else None,
        )
    finally:
        try:
            if spark is not None:
                spark.stop()
        finally:
            stop_children()
    info = {"workload": args.workload, "session_start_s": session_s, **info}
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
