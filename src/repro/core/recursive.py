"""Recursive k-way partitioning (§3.3, second approach).

The graph is bisected ``L = log₂ k`` times; part ids are bit-prefixes of the
recursion path. Per-level tolerance is ``eps / L``. The levels compound: a
part can weigh up to ``(1 + eps/L)^L`` times its share, so the k-way
imbalance is bounded by ``(1 + eps/L)^L − 1``, which is slightly above
``eps`` (0.0509 at eps=0.05, k=16) and below ``e^eps − 1``. The paper only
evaluates powers of two, and any other ``k`` raises ``ValueError``.

Weights are computed **once** on the full graph and carried down: balancing
sub-partitions on *original* degrees is what equalizes worker load, since a
worker's message volume includes cut edges.

There is one recursion, on numpy. ``partition_k_spark`` can run its top
bisection on the distributed GD; every smaller sub-problem runs the identical
numpy reference solver — the standard small-subproblem cutoff of distributed
partitioners (DESIGN.md §3). The graph comes to the driver once, in two
small collects (vertex weights and edges, plus the halves after a Spark top
bisection), and the rest of the recursion splits it in numpy.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.gd import _weight_cols, gd_bipartition_spark
from repro.core.local_gd import gd_bipartition_local
from repro.core.params import GDParams


def _check_k(k: int) -> None:
    if k < 1 or k & (k - 1):
        raise ValueError(f"k must be a power of two (paper §3.3), got {k}")


def _level_params(params: GDParams, levels: int, path: int) -> GDParams:
    return dataclasses.replace(params, eps=params.eps / levels, seed=params.seed * 1000003 + path)


def _reindex(edges: pd.DataFrame, members: np.ndarray) -> pd.DataFrame:
    """Relabel member ids to 0..len(members)-1 (members sorted)."""
    return pd.DataFrame(
        {
            "src": np.searchsorted(members, edges.src.to_numpy()),
            "dst": np.searchsorted(members, edges.dst.to_numpy()),
        }
    )


def _collect(
    edges: DataFrame, vertices: DataFrame, wcols: list[str]
) -> tuple[np.ndarray, np.ndarray, pd.DataFrame]:
    """A node's graph on the driver: sorted ids, weights and edges over 0..n-1.
    Raises ``ValueError`` for an edge with an endpoint outside ``vertices``."""
    vpdf = vertices.select("id", *wcols).toPandas().sort_values("id")
    ids = vpdf["id"].to_numpy()
    epdf = edges.select("src", "dst").toPandas()
    if not np.isin(epdf.to_numpy(), ids).all():
        raise ValueError("edge table has an endpoint missing from the vertex table")
    return ids, vpdf[wcols].to_numpy(dtype=float), _reindex(epdf, ids)


def _descend_local(
    edges: pd.DataFrame,
    W: np.ndarray,
    halves: np.ndarray,
    k: int,
    params: GDParams,
    levels: int,
    path: int,
) -> np.ndarray:
    """Split a bisected node's graph by ``halves`` and finish both halves on
    numpy; returns parts 0..k-1 over the node's ids 0..n-1."""
    parts = np.empty(W.shape[0], dtype=np.int64)
    half_k = k // 2
    src, dst = edges.src.to_numpy(), edges.dst.to_numpy()
    for side in (0, 1):
        members = np.flatnonzero(halves == side)
        mask = (halves[src] == side) & (halves[dst] == side)
        sub_edges = _reindex(edges[mask], members)
        sub = partition_k_local(
            sub_edges, W[members], half_k, params, levels, path * 2 + side + 1
        )
        parts[members] = side * half_k + sub
    return parts


def partition_k_local(
    edges: pd.DataFrame,
    W: np.ndarray,
    k: int,
    params: GDParams,
    _levels: int | None = None,
    _path: int = 0,
) -> np.ndarray:
    """Recursive GD on numpy; ``edges`` over ids 0..n-1, returns parts 0..k-1."""
    _check_k(k)
    if k == 1:
        return np.zeros(W.shape[0], dtype=np.int64)
    levels = int(np.log2(k)) if _levels is None else _levels
    halves, _ = gd_bipartition_local(edges, W, _level_params(params, levels, _path))
    return _descend_local(edges, W, halves, k, params, levels, _path)


def partition_k_spark(
    edges: DataFrame,
    vertices: DataFrame,
    k: int,
    params: GDParams,
    spark_levels: int = 1,
) -> DataFrame:
    """Recursive GD over Spark inputs: with ``spark_levels=1`` the top
    bisection runs on Spark, with ``spark_levels=0`` every bisection runs on
    numpy.

    Returns an assignment DataFrame ``[id, part]`` with parts 0..k-1.
    """
    _check_k(k)
    if spark_levels not in (0, 1):
        raise ValueError(f"spark_levels must be 0 or 1, got {spark_levels}")
    if k == 1:
        return vertices.select("id", F.lit(0).cast("long").alias("part"))
    levels = int(np.log2(k))
    wcols = _weight_cols(vertices)
    if spark_levels == 1:
        halves, _ = gd_bipartition_spark(edges, vertices, _level_params(params, levels, 0))
        if k == 2:
            return halves
    ids, W, epdf = _collect(edges, vertices, wcols)
    if spark_levels == 1:
        side = halves.toPandas().sort_values("id")["part"].to_numpy()
        parts = _descend_local(epdf, W, side, k, params, levels, 0)
    else:
        parts = partition_k_local(epdf, W, k, params)
    return edges.sparkSession.createDataFrame(pd.DataFrame({"id": ids, "part": parts}))
