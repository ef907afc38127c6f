"""The four Giraph applications of §4.2, expressed as per-superstep loads.

- **Page Rank** (PR): 30 supersteps, every vertex messages all neighbours a
  fixed-size rank — static, edge-dominated load.
- **Connected Components** (CC): min-label propagation with message-on-update
  — load decays as labels converge (≤ 50 rounds, §4.2).
- **Mutual Friends** (MF): each vertex ships its neighbour list to every
  neighbour to count common friends — payload ∝ deg(sender), so load is
  degree²-weighted and hub placement dominates.
- **Hypergraph Clustering** (HC): iterative cluster-state exchange; modelled
  as 5 supersteps of per-edge messages with a heavy per-vertex state update
  (the app converts the graph to a hypergraph, so per-vertex work is large).

Each function returns ``list[pd.DataFrame]`` of per-superstep loads (see
``engine.LOAD_COLS``) plus the cost-model override where the app deviates
from the default constants.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from repro.giraph.cost_model import CostModel
from repro.giraph.engine import propagation_loads, static_loads


def pagerank_loads(edges: DataFrame, assignment: DataFrame, n_iter: int = 30) -> list[pd.DataFrame]:
    loads = static_loads(edges, assignment, units="one")
    return [loads] * n_iter


def connected_components_loads(edges: DataFrame, assignment: DataFrame) -> list[pd.DataFrame]:
    return propagation_loads(edges, assignment, max_rounds=50)


def mutual_friends_loads(edges: DataFrame, assignment: DataFrame) -> list[pd.DataFrame]:
    return [static_loads(edges, assignment, units="deg_src")]


def hypergraph_clustering_loads(
    edges: DataFrame, assignment: DataFrame, n_iter: int = 5
) -> list[pd.DataFrame]:
    loads = static_loads(edges, assignment, units="one")
    return [loads] * n_iter


def app_cost_model(app: str, base: CostModel) -> CostModel:
    """Per-app constant overrides. HC is vertex-state heavy (4× per-vertex
    work); every other app uses ``base``."""
    if app == "HC":
        return CostModel(
            c_msg=base.c_msg,
            c_remote=base.c_remote,
            c_vertex=4.0 * base.c_vertex,
            bytes_per_unit=base.bytes_per_unit,
        )
    return base


APP_LOADS = {
    "PR": pagerank_loads,
    "CC": connected_components_loads,
    "HC": hypergraph_clustering_loads,
    "MF": mutual_friends_loads,
}
