"""Recursive k-way partitioning (§3.3, second approach).

The graph is bisected ``log₂ k`` times; part ids are bit-prefixes of the
recursion path. Per-level tolerance is ``eps / levels`` so the compounded
imbalance stays within ``eps``. The paper only evaluates powers of two, and
any other ``k`` raises ``ValueError``.

Weights are computed **once** on the full graph and carried down: balancing
sub-partitions on *original* degrees is what equalizes worker load, since a
worker's message volume includes cut edges.

The top ``spark_levels`` of the recursion run the distributed GD; deeper
(smaller) sub-problems run the identical numpy reference solver — the standard
small-subproblem cutoff of distributed partitioners (DESIGN.md §3). The engine
switch collects the node's graph once: where a Spark node's children run
locally, its halves, its vertex weights and its edges come to the driver in
three small collects, and both halves are split and finished in numpy by the
same descent that ``partition_k_local`` uses. With ``spark_levels <= 0`` the
whole graph is collected the same way before any bisection.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.gd import gd_bipartition_spark
from repro.core.local_gd import gd_bipartition_local
from repro.core.params import GDParams
from repro.graphs.ops import induced_edges


def _check_k(k: int) -> None:
    if k < 1 or k & (k - 1):
        raise ValueError(f"k must be a power of two (paper §3.3), got {k}")


def _level_params(params: GDParams, levels: int, path: int) -> GDParams:
    p = GDParams(**{**params.__dict__})
    p.eps = params.eps / levels
    p.seed = params.seed * 1000003 + path
    p.record_history = False
    return p


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
    """A node's graph on the driver: sorted ids, weights and edges over 0..n-1."""
    vpdf = vertices.select("id", *wcols).toPandas().sort_values("id")
    ids = vpdf["id"].to_numpy()
    epdf = _reindex(edges.select("src", "dst").toPandas(), ids)
    return ids, vpdf[wcols].to_numpy(dtype=float), epdf


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
    _levels: int | None = None,
    _path: int = 0,
) -> DataFrame:
    """Recursive GD with the top ``spark_levels`` bisections distributed.

    Returns an assignment DataFrame ``[id, part]`` with parts 0..k-1.
    """
    _check_k(k)
    spark = edges.sparkSession
    wcols = sorted(c for c in vertices.columns if c.startswith("w_"))
    if k == 1:
        return vertices.select("id", F.lit(0).cast("long").alias("part"))
    levels = int(np.log2(k)) if _levels is None else _levels

    if spark_levels <= 0:
        ids, W, epdf = _collect(edges, vertices, wcols)
        parts = partition_k_local(epdf, W, k, params, levels, _path)
        return spark.createDataFrame(pd.DataFrame({"id": ids, "part": parts}))

    halves = gd_bipartition_spark(edges, vertices, _level_params(params, levels, _path))
    if k == 2:
        return halves
    if spark_levels == 1:
        # Both children run locally: collect this node's graph once.
        ids, W, epdf = _collect(edges, vertices, wcols)
        side = halves.toPandas().sort_values("id")["part"].to_numpy()
        parts = _descend_local(epdf, W, side, k, params, levels, _path)
        return spark.createDataFrame(pd.DataFrame({"id": ids, "part": parts}))

    pieces = []
    for side in (0, 1):
        side_vertices = vertices.join(
            halves.filter(F.col("part") == side).select("id"), "id"
        )
        side_edges = induced_edges(edges, side_vertices)
        sub = partition_k_spark(
            side_edges,
            side_vertices,
            k // 2,
            params,
            spark_levels - 1,
            levels,
            _path * 2 + side + 1,
        )
        pieces.append(
            sub.select("id", (F.lit(side * (k // 2)) + F.col("part")).alias("part"))
        )
    return pieces[0].unionByName(pieces[1])
