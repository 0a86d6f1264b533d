"""Table I: dataset statistics of the synthetic stand-ins."""
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import base_parser, emit
from repro import session
from repro.harness.experiments import table1_datasets

if __name__ == "__main__":
    args = base_parser(__doc__).parse_args()
    spark = session("table1")
    emit("Table I — dataset statistics", table1_datasets(spark, args.datasets))
