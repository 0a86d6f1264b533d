"""Exp-1 (Fig 7): processing time & speedup vs batch similarity."""
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import base_parser, emit
from repro import session
from repro.harness.experiments import exp1_similarity

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--shares", nargs="+", type=float, default=[0.0, 0.3, 0.6, 0.9])
    p.add_argument("--gamma", type=float, default=0.5)
    args = p.parse_args()
    spark = session("exp1")
    emit("Exp-1 — time vs similarity", exp1_similarity(
        spark, args.datasets or ["EP"],
        n_queries=args.n_queries or 20, shares=args.shares,
        gamma=args.gamma, seed=args.seed))
