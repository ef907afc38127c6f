"""spark-submit entrypoint for one paper exhibit (table or figure).

Usage: spark-submit jobs/run.py <exhibit>, with <exhibit> one of
table1, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11.
The harness prints the paper's reference rows next to the measured ones;
see EXPERIMENTS.md for the recorded comparison.
"""
import argparse
import importlib

from pyspark.sql import SparkSession

EXHIBITS = {
    "table1": "table1",
    "fig4": "fig4_balance",
    "fig5": "fig5_locality",
    "fig6": "fig6_locality_fb",
    "fig7": "fig7_speedup",
    "fig8": "fig8_step",
    "fig9": "fig9_adaptive",
    "fig10": "fig10_projection",
    "fig11": "fig11_scaling",
}

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("exhibit", choices=EXHIBITS)
    exhibit = parser.parse_args().exhibit
    main = importlib.import_module(f"repro.experiments.{EXHIBITS[exhibit]}").main
    spark = (
        SparkSession.builder.appName(exhibit)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("WARN")
    main(spark)
    spark.stop()
