"""Exp-5 (Fig 11): scalability on vertex samples of the largest graphs."""
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import base_parser, emit
from repro import session
from repro.harness.experiments import exp5_scalability

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--pcts", nargs="+", type=int, default=[20, 40, 60, 80, 100])
    args = p.parse_args()
    spark = session("exp5")
    emit("Exp-5 — scalability", exp5_scalability(
        spark, args.datasets or ["TW", "FS"], pcts=args.pcts,
        n_queries=args.n_queries or 15, seed=args.seed))
