"""Exp-3 (Fig 9): BatchEnum+ stage decomposition."""
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import base_parser, emit
from repro import session
from repro.harness.experiments import exp3_decomposition

if __name__ == "__main__":
    args = base_parser(__doc__).parse_args()
    spark = session("exp3")
    emit("Exp-3 — stage decomposition", exp3_decomposition(
        spark, args.datasets or ["EP", "SL", "WT", "BS"],
        n_queries=args.n_queries or 20, seed=args.seed))
