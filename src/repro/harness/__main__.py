"""Regenerate one table of ``results/``: ``python -m repro.harness <name>``.

``<name>`` is a key of :data:`repro.harness.experiments.TABLES`. The table
is written to ``results/<name>.md`` under the current directory and echoed.
A discarded pass of the five enumerators on the paper's example graph runs
first, so the table's first row does not carry the session's cold start.
Other sweeps call the runners in :mod:`repro.harness.experiments` from
Python.
"""
from __future__ import annotations

import argparse
import pathlib

from repro import session
from repro.core.queries import Query
from repro.graph.generators import paper_example_edges
from repro.harness.experiments import TABLES, algo_runner, to_markdown

# The batch of the paper's Example 4.1 on its Fig. 1 graph.
WARM_UP_BATCH = [
    Query(0, 0, 11, 5), Query(1, 2, 13, 5), Query(2, 5, 12, 5),
    Query(3, 4, 14, 4), Query(4, 9, 14, 3),
]


def warm_up(spark) -> None:
    """Run each enumerator once on a tiny batch and discard the result."""
    edges = paper_example_edges(spark)
    for algo in ("PathEnum", "BasicEnum", "BatchEnum", "DkSP", "OnePass"):
        algo_runner(algo)(spark, edges, WARM_UP_BATCH)


def main(name: str) -> None:
    title, runner, kwargs = TABLES[name]
    spark = session(name)
    try:
        warm_up(spark)
        df = runner(spark, **kwargs)
    finally:
        spark.stop()
    md = f"## {title}\n\n{to_markdown(df)}\n"
    out = pathlib.Path("results")
    out.mkdir(exist_ok=True)
    (out / f"{name}.md").write_text(md)
    print(f"\n{md}")


if __name__ == "__main__":
    p = argparse.ArgumentParser(prog="python -m repro.harness", description=__doc__)
    p.add_argument("name", choices=TABLES)
    main(p.parse_args().name)
