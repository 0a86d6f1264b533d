"""Exp-2 (Fig 8): processing time vs query-set size.

The EXPERIMENTS.md large-|Q| supplement is:
  python jobs/exp2_qsize.py --datasets SL --sizes 50 100 200 \
      --k 5 6 --share 0.6 --min-dist 5 --algos BasicEnum BatchEnum BatchEnum+
"""
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import base_parser, emit
from repro import session
from repro.harness.experiments import exp2_query_set_size

if __name__ == "__main__":
    p = base_parser(__doc__)
    p.add_argument("--sizes", nargs="+", type=int, default=[10, 20, 30])
    p.add_argument("--k", nargs=2, type=int, default=[4, 6])
    p.add_argument("--share", type=float, default=0.5)
    p.add_argument("--min-dist", type=int, default=2)
    p.add_argument(
        "--algos", nargs="+",
        default=["PathEnum", "BasicEnum", "BasicEnum+", "BatchEnum", "BatchEnum+"],
    )
    args = p.parse_args()
    spark = session("exp2")
    emit("Exp-2 — time vs |Q|", exp2_query_set_size(
        spark, args.datasets or ["EP"], sizes=args.sizes,
        k_range=tuple(args.k), share=args.share, min_dist=args.min_dist,
        algos=args.algos, seed=args.seed))
