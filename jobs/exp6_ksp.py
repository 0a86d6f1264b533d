"""Exp-6 (Fig 12): comparison with adapted k-shortest-path algorithms."""
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import base_parser, emit
from repro import session
from repro.harness.experiments import exp6_ksp

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--ks", nargs="+", type=int, default=[3, 4, 5])
    args = p.parse_args()
    spark = session("exp6")
    emit("Exp-6 — vs KSP algorithms", exp6_ksp(
        spark, args.datasets or ["EP"], n_queries=args.n_queries or 10,
        ks=args.ks, seed=args.seed))
