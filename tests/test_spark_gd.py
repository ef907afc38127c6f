"""Tests for the distributed (Spark DataFrame) GD — cross-checked against the
numpy reference on identical inputs."""
import math
import re
import statistics

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import metrics
from repro.core import gd
from repro.core.gd import gd_bipartition_spark, gd_relax_spark
from repro.core.local_gd import gd_relax_local, relax
from repro.core.params import GDParams
from repro.graphs import generators as gen
from repro.graphs.ops import vertex_table
from tests.spark_jobs import count_jobs, count_py4j


@pytest.fixture(scope="module")
def graph(spark):
    spec = gen.GraphSpec(n=250, avg_degree=10, levels=1, mu_cross=0.1, seed=50)
    pdf = gen.generate_edges(spec)
    sdf = gen.to_spark(spark, pdf).cache()
    vt = vertex_table(sdf).cache()
    vt.count()
    return spec, pdf, sdf, vt


def _W_from_vt(vt):
    p = vt.select("id", "w_0", "w_1").toPandas().sort_values("id")
    return p[["w_0", "w_1"]].to_numpy(dtype=float)


def test_spark_matches_local_trajectory(graph):
    """Same x0, no noise: Spark and numpy implementations must coincide."""
    spec, pdf, sdf, vt = graph
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-0.02, 0.02, spec.n)
    params = GDParams(n_iter=5, final_project=False, fixing=False, seed=0)

    W = _W_from_vt(vt)
    x_local, _ = gd_relax_local(pdf, W, params, x0=x0)

    x0_df = pd.DataFrame({"id": np.arange(spec.n), "x": x0})
    frac, _ = gd_relax_spark(sdf, vt, params, x0=x0_df)
    x_spark = frac.select("id", "x").toPandas().sort_values("id")["x"].to_numpy()
    assert np.allclose(x_spark, x_local, atol=1e-6)


def test_spark_matches_local_with_fixing_and_final(graph):
    spec, pdf, sdf, vt = graph
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-0.05, 0.05, spec.n)
    params = GDParams(
        n_iter=8, final_project=True, fixing=True, fix_start_frac=0.5, seed=0
    )
    W = _W_from_vt(vt)
    x_local, _ = gd_relax_local(pdf, W, params, x0=x0)
    x0_df = pd.DataFrame({"id": np.arange(spec.n), "x": x0})
    frac, _ = gd_relax_spark(sdf, vt, params, x0=x0_df)
    x_spark = frac.select("id", "x").toPandas().sort_values("id")["x"].to_numpy()
    assert np.allclose(x_spark, x_local, atol=1e-5)


def test_spark_gd_stays_in_box(graph):
    _, _, sdf, vt = graph
    frac, _ = gd_relax_spark(sdf, vt, GDParams(n_iter=6, seed=1))
    mx = frac.agg(F.max(F.abs(F.col("x")))).collect()[0][0]
    assert mx <= 1 + 1e-9


def test_spark_bipartition_end_to_end(graph):
    spec, _, sdf, vt = graph
    params = GDParams(n_iter=12, eps=0.05, seed=2)
    assign, trace = gd_bipartition_spark(sdf, vt, params)
    assert len(trace) == params.n_iter
    assert assign.count() == spec.n
    assert set(r["part"] for r in assign.select("part").distinct().collect()) == {0, 1}
    # ε-balance on both dimensions (Definition 2.1).
    eps = metrics.epsilon_balance(vt, assign, dims=2, k=2)
    assert eps <= 0.05 + 1e-6
    # Better than a random split.
    loc = metrics.edge_locality(sdf, assign)
    assert loc > 0.55


def test_spark_gd_noise_seed_deterministic(graph):
    _, _, sdf, vt = graph
    p = GDParams(n_iter=3, seed=9, final_project=False)
    a = gd_relax_spark(sdf, vt, p)[0].select("id", "x").toPandas().sort_values("id")
    b = gd_relax_spark(sdf, vt, p)[0].select("id", "x").toPandas().sort_values("id")
    assert np.allclose(a["x"].to_numpy(), b["x"].to_numpy())


def test_spark_gd_requires_weight_columns(graph, spark):
    _, _, sdf, _ = graph
    bad_vt = spark.createDataFrame(pd.DataFrame({"id": range(250)}))
    with pytest.raises(ValueError, match="weight columns"):
        gd_relax_spark(sdf, bad_vt, GDParams(n_iter=1))


@pytest.mark.parametrize("projection", ["exact", "dykstra", "alternating"])
def test_spark_gd_rejects_projection_it_cannot_run(graph, projection):
    """The Spark step takes only the one-shot projection; any other method
    raises instead of quietly running one-shot."""
    _, _, sdf, vt = graph
    with pytest.raises(ValueError, match="one_shot"):
        gd_relax_spark(sdf, vt, GDParams(n_iter=1, projection=projection))


def test_spark_gd_noise_is_randn_on_vertex_table(graph):
    """The t=0 noise is ``F.randn(seed)·σ`` drawn on the vertex table itself,
    so one GD step from it equals the numpy step from that same noise."""
    spec, pdf, sdf, vt = graph
    params = GDParams(n_iter=1, fixing=False, final_project=False, seed=11)
    noise = vt.select("id", (F.randn(params.seed) * F.lit(params.noise_sigma)).alias("x")).toPandas()
    x0 = noise.sort_values("id")["x"].to_numpy()
    assert np.abs(x0).max() > 0
    x_ref, _ = gd_relax_local(pdf, _W_from_vt(vt), params, x0=x0)
    frac, _ = gd_relax_spark(sdf, vt, params)
    x_spark = frac.select("id", "x").toPandas().sort_values("id")["x"].to_numpy()
    assert np.allclose(x_spark, x_ref, atol=1e-6)


def _final_plan(df) -> str:
    """``df``'s executed (final adaptive) plan, without the initial plan. The
    cut is at the top-level marker: the plan of a cached input is nested
    inside, with markers of its own."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    return plan.split("\n+- == Initial Plan ==")[0]


def _final_exchanges(df) -> int:
    """Shuffle ``Exchange`` nodes of ``df``'s executed (final adaptive) plan."""
    return len(re.findall(r"(?<!\w)Exchange ", _final_plan(df)))


def _record_checkpoints(monkeypatch, df_cls) -> list:
    """Every DataFrame that is checkpointed from now on, in order."""
    checkpointed = []
    original = df_cls.localCheckpoint

    def recording(self, *args, **kwargs):
        checkpointed.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(df_cls, "localCheckpoint", recording)
    return checkpointed


def test_spark_gd_iteration_costs_two_jobs_and_one_shuffle(graph, spark, monkeypatch):
    """One GD step is at most two Spark jobs (the message shuffle's map stage
    and the checkpoint), and its materialised plan has a single shuffle."""
    _, _, sdf, vt = graph
    checkpointed = _record_checkpoints(monkeypatch, type(vt))

    def jobs(n_iter: int) -> int:
        params = GDParams(n_iter=n_iter, final_project=False, seed=5)
        return count_jobs(spark, lambda: gd_relax_spark(sdf, vt, params))[0]

    j3 = jobs(3)
    # Checkpoints of the n_iter=3 run: the start's two (adjacency, gradient),
    # two full steps, the last update.
    steps = checkpointed[2:4]
    j6 = jobs(6)
    assert j6 - j3 <= 2 * 3
    assert [_final_exchanges(df) for df in steps] == [1, 1]


def test_spark_gd_start_builds_adjacency_once(graph, monkeypatch):
    """The start collects the adjacency arrays in one aggregation: across the
    checkpoints taken before the first step, the final plans hold a single
    ``partial_collect_list``."""
    _, _, sdf, vt = graph
    checkpointed = _record_checkpoints(monkeypatch, type(vt))
    start = []

    def recording(*args):
        start.extend(checkpointed)
        return relax(*args)

    monkeypatch.setattr(gd, "relax", recording)
    gd_relax_spark(sdf, vt, GDParams(n_iter=2, final_project=False, seed=5))
    assert start
    assert sum(_final_plan(df).count("partial_collect_list") for df in start) == 1


def test_spark_gd_step_driver_cost(graph, monkeypatch):
    """A GD step costs the driver few py4j round trips: the median number of
    commands per step, the commands between two consecutive checkpoints, is
    at most 150. Building each step's Columns through the Python API cost
    hundreds."""
    _, _, sdf, vt = graph
    per_step = []

    def recording(m, b, n, params, step, shift):
        def counted(*args):
            sent, moments = count_py4j(lambda: step(*args))
            per_step.append(sent)
            return moments

        return relax(m, b, n, params, counted, shift)

    monkeypatch.setattr(gd, "relax", recording)
    gd_relax_spark(sdf, vt, GDParams(n_iter=6, final_project=False, seed=5))
    assert len(per_step) == 6
    assert statistics.median(per_step) <= 150


@pytest.mark.parametrize("value", [0.1, -0.1, 1e-300, 5e-324, -1.7976931348623157e308, -0.0, 1 / 3])
def test_step_literal_parses_back_to_the_same_double(spark, value):
    """γ and λ enter a step as SQL text; Spark reads them back bit for bit."""
    got = spark.range(1).selectExpr(f"{gd._lit(value)} AS v").collect()[0]["v"]
    assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_step_literal_rejects_non_finite(value):
    with pytest.raises(ValueError, match="not finite"):
        gd._lit(value)


@pytest.mark.parametrize(
    "params, atol",
    [
        (GDParams(n_iter=5, final_project=False, fixing=False, seed=0), 1e-6),
        (GDParams(n_iter=8, final_project=True, fixing=True, fix_start_frac=0.5, seed=0), 1e-5),
        (GDParams(n_iter=8, fix_start_frac=0.0, fix_threshold=0.3, final_project=False, seed=0), 1e-6),
    ],
)
def test_spark_gd_keeps_isolated_vertex(graph, spark, params, atol):
    """A vertex in no edge has an empty adjacency array and a zero gradient:
    its row survives and both engines still follow the same trajectory."""
    spec, pdf, sdf, vt = graph
    iso = spec.n
    vt_iso = vt.unionByName(spark.createDataFrame([(iso, 0, 1.0, 0.0)], vt.schema))
    W = np.vstack([_W_from_vt(vt), [1.0, 0.0]])
    x0 = np.random.default_rng(6).uniform(-0.05, 0.05, spec.n + 1)
    x_local, _ = gd_relax_local(pdf, W, params, x0=x0)
    frac, _ = gd_relax_spark(sdf, vt_iso, params, x0=pd.DataFrame({"id": np.arange(iso + 1), "x": x0}))
    got = frac.select("id", "x").toPandas().sort_values("id")
    assert got["id"].tolist() == list(range(iso + 1))
    assert np.allclose(got["x"].to_numpy(), x_local, atol=atol)


def test_gd_stops_once_every_vertex_is_fixed(graph, spark):
    """With fixing from the first step at threshold 0, every vertex is fixed
    after one step. The Spark loop then stops: 3 and 12 iterations cost the
    same jobs and give the same x, which matches numpy. The numpy trace
    still has one entry per iteration, ending in zero steps."""
    spec, pdf, sdf, vt = graph
    W = _W_from_vt(vt)
    x0 = np.random.default_rng(7).uniform(-0.05, 0.05, spec.n)
    x0_df = pd.DataFrame({"id": np.arange(spec.n), "x": x0})

    def params(n_iter: int, **kw) -> GDParams:
        # step_mult ∝ n_iter keeps the target step length, so the one real
        # step is the same in both runs.
        return GDParams(
            n_iter=n_iter, step_mult=n_iter / 6, fix_start_frac=0.0, fix_threshold=0.0, seed=0, **kw
        )

    def spark_x(n_iter: int) -> tuple[int, np.ndarray]:
        jobs, (frac, _) = count_jobs(spark, lambda: gd_relax_spark(sdf, vt, params(n_iter), x0=x0_df))
        return jobs, frac.select("id", "x").toPandas().sort_values("id")["x"].to_numpy()

    jobs3, x3 = spark_x(3)
    jobs12, x12 = spark_x(12)
    assert jobs12 == jobs3
    assert np.array_equal(x12, x3)

    x_local, trace = gd_relax_local(pdf, W, params(12), x0=x0)
    assert np.allclose(x12, x_local, atol=1e-5)
    assert len(trace) == 12
    assert trace[0].step > 0 and [m.step for m in trace[1:]] == [0.0] * 11
    assert [spec.n - m.n_free for m in trace] == [spec.n] * 12


@pytest.mark.parametrize(
    "params, last_ran",
    [
        (GDParams(n_iter=5, final_project=False, fixing=False, seed=0), True),
        # every vertex is fixed by the first step, so the loop stops there
        (GDParams(n_iter=6, fix_start_frac=0.0, fix_threshold=0.0, final_project=False, seed=0), False),
    ],
)
def test_spark_trace_matches_numpy(graph, params, last_ran):
    """The Spark engine returns n_iter trace entries too, equal to numpy's.
    Spark takes no gradient after the last step, so there ⟨x, Ax⟩ reads 0."""
    spec, pdf, sdf, vt = graph
    x0 = np.random.default_rng(3).uniform(-0.02, 0.02, spec.n)
    _, local = gd_relax_local(pdf, _W_from_vt(vt), params, x0=x0)
    _, spark_trace = gd_relax_spark(sdf, vt, params, x0=pd.DataFrame({"id": np.arange(spec.n), "x": x0}))
    assert len(spark_trace) == len(local) == params.n_iter
    assert [m.n_free for m in spark_trace] == [m.n_free for m in local]
    for field in ("a", "step"):
        got = np.array([getattr(m, field) for m in spark_trace])
        assert np.allclose(got, [getattr(m, field) for m in local], rtol=1e-9, atol=1e-9)
    xax = [m.xax for m in local]
    if last_ran:
        xax[-1] = 0.0
    assert np.allclose([m.xax for m in spark_trace], xax, rtol=1e-9, atol=1e-9)
