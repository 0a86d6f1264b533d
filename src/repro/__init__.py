"""PySpark reproduction of "Batch Hop-Constrained s-t Simple Path Query
Processing in Large Graphs" (ICDE 2024).

Packages: ``graph`` (synthetic datasets + graph ops), ``core`` (index,
enumeration engine, the paper's Algorithms 1-4), ``baselines`` (adapted
k-shortest-path competitors), ``harness`` (experiment runners for every
evaluation table). See DESIGN.md for the paper→Spark mapping.
"""


def session(app: str):
    """The SparkSession every entry point shares (the tests and
    ``python -m repro.harness``).

    Master and driver memory are launch settings (``PYSPARK_SUBMIT_ARGS``
    or ``spark-submit``). The settings made here take effect on a running
    JVM: 64 shuffle partitions, Arrow for pandas conversion, and no
    automatic broadcast joins — the code marks every broadcast it wants
    (DESIGN.md §2), and every join of the enumerators is one of them, so
    none shuffles.
    """
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
