"""Regenerate one table of ``results/``: ``python -m repro.harness <name>``.

``<name>`` is a key of :data:`repro.harness.experiments.TABLES`. The table
is written to ``results/<name>.md`` under the current directory and echoed.
Other sweeps call the runners in :mod:`repro.harness.experiments` from
Python.
"""
from __future__ import annotations

import argparse
import pathlib

from repro import session
from repro.harness.experiments import TABLES, to_markdown


def main(name: str) -> None:
    title, runner, kwargs = TABLES[name]
    spark = session(name)
    try:
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
