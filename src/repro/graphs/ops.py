"""Graph operations on Spark DataFrames.

Conventions used throughout the reproduction:

- A *canonical* edge list has columns ``src < dst`` (``bigint``), one row per
  undirected edge, no self-loops, no duplicates.
- A *symmetric* edge list has both ``(u,v)`` and ``(v,u)`` — the adjacency-
  matrix view used for gradient computation and message passing.
- A *vertex table* has a ``id`` column plus per-vertex attributes; weight
  dimensions are ``w_0, w_1, ...``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def symmetrize(edges: DataFrame) -> DataFrame:
    """Canonical (src<dst) edge list -> both-direction adjacency view."""
    return edges.select("src", "dst").unionByName(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )


def degrees(edges: DataFrame) -> DataFrame:
    """Per-vertex degree ``[id, degree]`` from a canonical edge list."""
    return (
        symmetrize(edges)
        .groupBy(F.col("src").alias("id"))
        .agg(F.count(F.lit(1)).alias("degree"))
    )


def vertex_table(edges: DataFrame, dims: tuple[str, ...] = ("unit", "degree")) -> DataFrame:
    """Vertex table with weight columns ``w_0..w_{d-1}``.

    Supported dimension names (paper §4.1): ``unit`` (=1), ``degree``,
    ``sqrt_degree``, ``degree_sq``.
    """
    vt = degrees(edges)
    exprs = {
        "unit": F.lit(1.0),
        "degree": F.col("degree").cast("double"),
        "sqrt_degree": F.sqrt(F.col("degree").cast("double")),
        "degree_sq": F.pow(F.col("degree").cast("double"), F.lit(2.0)),
    }
    for j, name in enumerate(dims):
        if name not in exprs:
            raise ValueError(f"unknown weight dimension {name!r}")
        vt = vt.withColumn(f"w_{j}", exprs[name])
    return vt.select("id", "degree", *[f"w_{j}" for j in range(len(dims))])


def validate_canonical(edges_pdf: pd.DataFrame) -> None:
    """Raise ``ValueError`` unless the pandas edge list is canonical (tests +
    generator contract)."""
    if not (edges_pdf.src < edges_pdf.dst).all():
        raise ValueError("edges must satisfy src < dst")
    if edges_pdf.duplicated(["src", "dst"]).any():
        raise ValueError("duplicate edges")
