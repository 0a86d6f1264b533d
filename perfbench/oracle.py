"""The correctness gate: naive-DFS answers held by a separate process.

The oracle (``ref_engine.enum_st_paths`` per query) is computed once per
workload and seed, before the warm-up, in a child Python process that this
module starts and talks to over pipes. So it neither competes with Spark for
CPU during a timed batch nor counts toward the driver's memory, and the
comparison of each batch's answers runs there too, outside every timed
region.

A plain child process, not a ``multiprocessing`` pool: a spawn-context pool
starts a resource-tracker process that ignores SIGTERM and outlives the
benchmark. ``close`` ends the child and waits for it.
"""
from __future__ import annotations

import pickle
import subprocess
import sys
import time
from pathlib import Path

Path_ = tuple[int, ...]
SRC = Path(__file__).resolve().parent.parent / "src"


def _serve(rd, wr) -> None:
    """Child side: answer requests from the parent until its pipe closes.

    The first message is ``(adj, queries)``; the reply is the naive-DFS
    seconds. Each later message is a ``{qid: [path, ...]}`` answer set; the
    reply is the list of qids whose path set is not exactly the oracle's.
    """
    from repro.core import ref_engine

    adj, queries = pickle.load(rd)
    t0 = time.perf_counter()
    truth = {qid: sorted(ref_engine.enum_st_paths(adj, s, t, k))
             for qid, s, t, k in queries}
    reply = time.perf_counter() - t0
    while True:
        pickle.dump(reply, wr)
        wr.flush()
        try:
            answers = pickle.load(rd)
        except EOFError:
            return
        reply = [qid for qid, paths in truth.items()
                 if sorted(answers.get(qid, [])) != paths]


class Oracle:
    """Exact per-query path sets of one batch, and checks against them."""

    def __init__(self, adj: dict[int, list[int]], queries) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            # naive-DFS seconds over the whole batch: the floor the engine is
            # compared against
            self.seconds = self._ask(
                (adj, [(q.qid, q.s, q.t, q.k) for q in queries]))
        except BaseException:
            self.close()
            raise

    def _ask(self, msg):
        pickle.dump(msg, self._proc.stdin)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def failures(self, results) -> list[int]:
        """qids whose answer in the ``(qid, path)`` frame is not exactly the
        oracle's path set: a path missing, extra or repeated."""
        pdf = results.toPandas()
        answers: dict[int, list[Path_]] = {}
        for qid, path in zip(pdf["qid"].tolist(), pdf["path"].tolist()):
            answers.setdefault(int(qid), []).append(tuple(int(v) for v in path))
        return self._ask(answers)

    def close(self) -> None:
        """End the child (EOF on its input) and wait until it has exited."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the replies
    _serve(sys.stdin.buffer, out)
