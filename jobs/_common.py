"""Shared plumbing for the spark-submit entrypoints in jobs/.

Each job wraps one experiment runner from ``repro.harness.experiments``:
it builds (or reuses) a SparkSession with ``repro.session``, runs the
experiment with CLI-chosen parameters, and prints the result rows as a
markdown table — the same rows recorded in EXPERIMENTS.md.

Usage: ``spark-submit jobs/exp1_similarity.py --datasets EP SL`` or simply
``python jobs/exp1_similarity.py`` (local mode).
"""
from __future__ import annotations

import argparse


def base_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--datasets", nargs="+", default=None, help="dataset names (see repro.graph.generators.DATASETS)")
    p.add_argument("--n-queries", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    return p


def emit(title: str, df) -> None:
    from repro.harness.experiments import to_markdown

    print(f"\n## {title}\n")
    print(to_markdown(df))
