"""Tests for recursive k-way partitioning (§3.3)."""

import numpy as np
import pandas as pd
import pytest

from repro import metrics
from repro.core import projection_np as P
from repro.core.gd import gd_bipartition_spark
from repro.core.params import GDParams
from repro.core.recursive import _level_params, partition_k_local, partition_k_spark
from repro.graphs import generators as gen
from repro.graphs.ops import vertex_table
from tests.spark_jobs import count_jobs
from tests.test_local_gd import _weights


@pytest.fixture(scope="module")
def graph4():
    """Four planted communities (levels=2)."""
    spec = gen.GraphSpec(n=400, avg_degree=12, levels=2, mu_cross=0.1, seed=60)
    return spec, gen.generate_edges(spec)


def test_local_k4_parts_range(graph4):
    spec, edges = graph4
    W = _weights(edges, spec.n)
    parts = partition_k_local(edges, W, 4, GDParams(n_iter=40, eps=0.08, seed=0))
    assert set(np.unique(parts)) == {0, 1, 2, 3}


def test_local_k4_balance(graph4):
    spec, edges = graph4
    W = _weights(edges, spec.n)
    eps = 0.08
    parts = partition_k_local(edges, W, 4, GDParams(n_iter=40, eps=eps, seed=0))
    for j in range(W.shape[1]):
        loads = np.array([W[parts == p, j].sum() for p in range(4)])
        target = W[:, j].sum() / 4
        assert np.abs(loads - target).max() <= (eps + 0.02) * target * 2


def test_local_k4_beats_hash_locality(graph4):
    spec, edges = graph4
    W = _weights(edges, spec.n)
    parts = partition_k_local(edges, W, 4, GDParams(n_iter=40, eps=0.08, seed=0))
    s, d = edges.src.to_numpy(), edges.dst.to_numpy()
    loc = float(np.mean(parts[s] == parts[d]))
    assert loc > 0.5  # hash gives ~0.25


def test_local_k1_trivial(graph4):
    spec, edges = graph4
    W = _weights(edges, spec.n)
    parts = partition_k_local(edges, W, 1, GDParams(n_iter=2))
    assert (parts == 0).all()


def test_local_k_must_be_power_of_two(graph4):
    spec, edges = graph4
    W = _weights(edges, spec.n)
    for k in (0, 3, 6):
        with pytest.raises(ValueError, match="power of two"):
            partition_k_local(edges, W, k, GDParams(n_iter=2))


def test_spark_k_must_be_power_of_two(graph4, spark):
    _, edges = graph4
    sdf = gen.to_spark(spark, edges)
    vt = vertex_table(sdf)
    for k in (0, 3, 6):
        with pytest.raises(ValueError, match="power of two"):
            partition_k_spark(sdf, vt, k, GDParams(n_iter=2))


def test_local_k_deterministic(graph4):
    spec, edges = graph4
    W = _weights(edges, spec.n)
    p = GDParams(n_iter=15, seed=5)
    a = partition_k_local(edges, W, 4, p)
    b = partition_k_local(edges, W, 4, p)
    assert np.array_equal(a, b)


def test_spark_k4_local_fallback(graph4, spark):
    """spark_levels=0 collects and runs the numpy recursion."""
    spec, edges = graph4
    sdf = gen.to_spark(spark, edges)
    vt = vertex_table(sdf)
    assign = partition_k_spark(sdf, vt, 4, GDParams(n_iter=30, eps=0.08, seed=0), spark_levels=0)
    assert assign.count() == spec.n
    assert metrics.edge_locality(sdf, assign) > 0.45
    assert metrics.epsilon_balance(vt, assign, dims=2, k=4) < 0.25


def test_spark_k4_top_level_distributed(graph4, spark):
    """spark_levels=1: top bisection on Spark, halves finished locally."""
    spec, edges = graph4
    sdf = gen.to_spark(spark, edges).cache()
    vt = vertex_table(sdf).cache()
    assign = partition_k_spark(sdf, vt, 4, GDParams(n_iter=12, eps=0.08, seed=1), spark_levels=1)
    parts = assign.toPandas().sort_values("id")["part"].to_numpy()
    assert assign.count() == spec.n
    assert set(np.unique(parts)) == {0, 1, 2, 3}


def test_spark_k2_equals_bipartition_shape(graph4, spark):
    spec, edges = graph4
    sdf = gen.to_spark(spark, edges)
    vt = vertex_table(sdf)
    assign = partition_k_spark(sdf, vt, 2, GDParams(n_iter=10, eps=0.05, seed=2), spark_levels=1)
    assert set(r["part"] for r in assign.select("part").distinct().collect()) == {0, 1}


@pytest.mark.parametrize("spark_levels", [0, 1])
def test_spark_k4_isolated_vertex_gets_one_part(graph4, spark, spark_levels):
    """A vertex in no edge still gets exactly one part in [0, k)."""
    spec, edges = graph4
    sdf = gen.to_spark(spark, edges)
    vt = vertex_table(sdf)
    iso = spec.n
    vt = vt.unionByName(spark.createDataFrame([(iso, 0, 1.0, 0.0)], vt.schema))
    assign = partition_k_spark(
        sdf, vt, 4, GDParams(n_iter=8, eps=0.08, seed=3), spark_levels=spark_levels
    ).toPandas()
    assert sorted(assign["id"]) == list(range(iso + 1))
    assert assign["part"].between(0, 3).all()


@pytest.mark.parametrize("spark_levels", [2, -1])
def test_spark_levels_must_be_0_or_1(graph4, spark, spark_levels):
    _, edges = graph4
    sdf = gen.to_spark(spark, edges)
    vt = vertex_table(sdf)
    with pytest.raises(ValueError, match="spark_levels must be 0 or 1"):
        partition_k_spark(sdf, vt, 4, GDParams(n_iter=2), spark_levels)


def test_spark_levels_0_equals_local_on_reindexed_graph(graph4, spark):
    """With spark_levels=0 the Spark entry point partitions exactly the graph
    that partition_k_local gets once the ids are sorted to 0..n-1, an isolated
    vertex included."""
    spec, edges = graph4
    # Vertex i gets id 3i+7 and the isolated vertex id 5, the smallest: on the
    # driver it is vertex 0, and vertex i is vertex i+1.
    sdf = gen.to_spark(spark, 3 * edges + 7)
    vt = vertex_table(sdf)
    vt = vt.unionByName(spark.createDataFrame([(5, 0, 1.0, 0.0)], vt.schema))
    params = GDParams(n_iter=20, eps=0.08, seed=7)
    got = partition_k_spark(sdf, vt, 4, params, spark_levels=0).toPandas().sort_values("id")
    W = np.vstack([[1.0, 0.0], _weights(edges, spec.n)])
    assert got["id"].tolist() == [5] + [3 * i + 7 for i in range(spec.n)]
    assert np.array_equal(got["part"].to_numpy(), partition_k_local(edges + 1, W, 4, params))


def test_spark_k4_descent_costs_at_most_three_jobs(graph4, spark):
    """Handing a Spark node's halves to numpy collects the node's graph once:
    the k-way run costs at most three Spark jobs more than its top bisection."""
    _, edges = graph4
    sdf = gen.to_spark(spark, edges).cache()
    vt = vertex_table(sdf).cache()
    vt.count()
    params = GDParams(n_iter=4, eps=0.08, seed=4)

    bisect, _ = count_jobs(spark, lambda: gd_bipartition_spark(sdf, vt, _level_params(params, 2, 0)))
    kway, _ = count_jobs(spark, lambda: partition_k_spark(sdf, vt, 4, params, spark_levels=1))
    assert kway - bisect <= 3


@pytest.mark.parametrize("spark_levels", [0, 1])
def test_spark_requires_weight_columns(graph4, spark, spark_levels):
    """Both engines reject a vertex table without ``w_*`` columns the same way."""
    _, edges = graph4
    sdf = gen.to_spark(spark, edges)
    bad_vt = vertex_table(sdf).select("id", "degree")
    with pytest.raises(ValueError, match="no weight columns"):
        partition_k_spark(sdf, bad_vt, 4, GDParams(n_iter=2), spark_levels)


def test_spark_rejects_edge_endpoint_missing_from_vertex_table(graph4, spark):
    """An edge to a vertex outside the vertex table raises instead of being
    relabelled onto the next vertex."""
    _, edges = graph4
    sdf = gen.to_spark(spark, edges)
    missing = int(edges.dst.iloc[0])
    vt = vertex_table(sdf).where(f"id != {missing}")
    with pytest.raises(ValueError, match="missing from the vertex table"):
        partition_k_spark(sdf, vt, 4, GDParams(n_iter=2), spark_levels=0)


def _never_relax(*args, **kwargs):
    raise AssertionError("the GD loop ran")


@pytest.mark.parametrize("k", [2, 4])
def test_spark_gd_rejects_edge_endpoint_missing_from_vertex_table(graph4, spark, monkeypatch, k):
    """The Spark top bisection raises at its start checkpoint, before the
    first GD step, for an edge to a vertex outside the vertex table."""
    _, edges = graph4
    sdf = gen.to_spark(spark, edges)
    missing = int(edges.dst.iloc[0])
    vt = vertex_table(sdf).where(f"id != {missing}")
    monkeypatch.setattr("repro.core.gd.relax", _never_relax)
    params = GDParams(n_iter=4, eps=0.08, seed=4)
    with pytest.raises(ValueError, match="missing from the vertex table"):
        gd_bipartition_spark(sdf, vt, params)
    with pytest.raises(ValueError, match="missing from the vertex table"):
        partition_k_spark(sdf, vt, k, params, spark_levels=1)


def test_spark_gd_rejects_edge_with_both_endpoints_missing(graph4, spark, monkeypatch):
    spec, edges = graph4
    sdf = gen.to_spark(spark, edges)
    vt = vertex_table(sdf)
    extra = pd.DataFrame({"src": [spec.n + 1], "dst": [spec.n + 2]})
    sdf_extra = gen.to_spark(spark, pd.concat([edges, extra], ignore_index=True))
    monkeypatch.setattr("repro.core.gd.relax", _never_relax)
    with pytest.raises(ValueError, match="2 endpoint"):
        gd_bipartition_spark(sdf_extra, vt, GDParams(n_iter=4, eps=0.08, seed=4))


def test_exact_projection_stays_in_K_on_every_call(monkeypatch):
    """Every exact d=2 projection of a k=8 recursion lands in K; some of its
    inputs reach |y| ~ 1e7."""
    spec = gen.fb_lite(n=2000)
    edges = gen.generate_edges(spec)
    W = _weights(edges, spec.n)
    exact_d2 = P.exact_d2
    excess = []

    def recording(y, W, b, fixed=None, x_fixed=None):
        x = exact_d2(y, W, b, fixed, x_fixed)
        excess.append(float((np.abs(W.T @ x) / b).max()) - 1.0)
        return x

    monkeypatch.setattr(P, "exact_d2", recording)
    params = GDParams(n_iter=40, eps=0.05, projection="exact", seed=3, fixing=False)
    partition_k_local(edges, W, 8, params)
    assert len(excess) > 100
    assert max(excess) <= 1e-6
