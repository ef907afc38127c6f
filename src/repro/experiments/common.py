"""Shared plumbing for the per-table/per-figure experiment harnesses."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.params import GDParams
from repro.core.recursive import partition_k_spark
from repro.graphs import generators as gen
from repro.graphs.ops import vertex_table


def build_graph(spark: SparkSession, spec: gen.GraphSpec):
    """Materialize a spec: (edges_pdf, edges_sdf cached, full vertex table)."""
    pdf = gen.generate_edges(spec)
    sdf = gen.to_spark(spark, pdf).cache()
    sdf.count()
    vt = vertex_table(sdf, dims=("unit", "degree")).cache()
    vt.count()
    return pdf, sdf, vt


def gd_assignment(
    edges: DataFrame,
    vt_full: DataFrame,
    k: int,
    mode: str,
    params: GDParams,
    engine: str = "spark",
) -> DataFrame:
    """GD partition in one of the §4.2 balance modes.

    The mode selects which weight columns GD balances; ``vt_full`` must carry
    ``w_0 = unit`` and ``w_1 = degree``. ``engine='local'`` collects the graph
    and runs the numpy recursion (used by parameter sweeps).
    """
    cols = {"vertex": ["w_0"], "edge": ["w_1"], "vertex-edge": ["w_0", "w_1"]}[mode]
    vt = vt_full.select("id", *[c for c in cols])
    for j, c in enumerate(cols):
        vt = vt.withColumnRenamed(c, f"w_{j}")
    if engine == "local":
        return partition_k_spark(edges, vt, k, params, spark_levels=0)
    return partition_k_spark(edges, vt, k, params, spark_levels=1)


def print_table(title: str, df: pd.DataFrame) -> None:
    print(f"\n=== {title} ===")
    print(df.to_string(index=False))
