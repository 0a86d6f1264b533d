"""Exp-4 (Fig 10): efficiency vs clustering threshold gamma."""
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import base_parser, emit
from repro import session
from repro.harness.experiments import exp4_gamma

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--gammas", nargs="+", type=float, default=[0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    args = p.parse_args()
    spark = session("exp4")
    emit("Exp-4 — time vs gamma", exp4_gamma(
        spark, args.datasets or ["EP"], n_queries=args.n_queries or 20,
        gammas=args.gammas, seed=args.seed))
