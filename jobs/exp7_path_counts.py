"""Exp-7 (Fig 13): average number of HC-s-t paths per query vs k."""
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import base_parser, emit
from repro import session
from repro.harness.experiments import exp7_path_counts

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--ks", nargs="+", type=int, default=[3, 4, 5, 6])
    args = p.parse_args()
    spark = session("exp7")
    emit("Exp-7 — path counts vs k", exp7_path_counts(
        spark, args.datasets or ["EP"], n_queries=args.n_queries or 15,
        ks=args.ks, seed=args.seed))
