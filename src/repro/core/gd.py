"""Distributed GD (Algorithm 1) on Spark DataFrames: the iterate of the loop
``local_gd.relax``, which both engines share.

The iterate is one checkpointed DataFrame
``[id, w_0.., x, step2, fixed, nbrs, grad]``: each vertex row holds its own
state, the square of its last step ``step2`` (see ``GDParams.adaptive``), its
adjacency array ``nbrs`` (null for a vertex without edges) and the gradient
``grad = (Ax)_id = Σ_{u∈N(id)} x_u`` of its ``x``. This is the
vertex-centric layout of Pregel/GraphX (Gonzalez et al., OSDI'14). One GD
iteration is one Spark plan with one shuffle:

1. a narrow ``select`` applies the projected update
   ``x ← clip(x + γ·grad − Σ_j λ_j w_j)`` and vertex fixing,
2. ``explode(nbrs)`` emits one message ``(dst, x)`` per directed edge,
3. the messages and the vertex rows are unioned and grouped by ``id`` (the
   shuffle): the vertex columns pass through, the messages sum to ``grad``,
4. ``localCheckpoint(eager=True)`` materialises the new iterate and truncates
   its lineage, while ``observe`` takes every scalar the driver needs in the
   same pass: ``⟨w_j, x⟩``, ``⟨w_j, grad⟩_free``, the free Gram matrix ``D``,
   ``‖grad‖²_free``, ``⟨x, grad⟩``, the step length and the number of free
   vertices.

With adaptive execution that is two Spark jobs (the shuffle's map stage and
the checkpoint); ``relax``'s stopping rules read only these scalars. Only
O(d²) scalars reach the driver per iteration, matching the paper's
distributed model (Theorem 1.1); the final rounding collects the fractional
vector, the same O(n) driver pass the paper performs centrally for the
projection's λ-search.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F

from repro.core.local_gd import Moments, relax
from repro.core.params import GDParams
from repro.core.rounding import round_to_halves
from repro.graphs.ops import symmetrize


def _weight_cols(vertices: DataFrame) -> list[str]:
    cols = sorted(c for c in vertices.columns if c.startswith("w_"))
    if not cols:
        raise ValueError("vertex table has no weight columns w_0..w_{d-1}")
    return cols


def _moments(wcols: list[str], with_grad: bool = True) -> list[Column]:
    """Aggregates of the iterate that ``relax`` reads (``local_gd.Moments``):
    ``a_j = ⟨w_j, x⟩``, the free Gram matrix ``D_j_l``, the squared step
    length ``step2`` and the number of free vertices ``n_free``; with the
    gradient also ``g_j = ⟨w_j, grad⟩_free``, ``gn2 = ‖grad‖²_free`` and
    ``xax = ⟨x, grad⟩``."""
    free = ~F.col("fixed")

    def free_sum(e: Column, name: str) -> Column:
        return F.sum(F.when(free, e).otherwise(0.0)).alias(name)

    aggs = []
    for j, cj in enumerate(wcols):
        aggs.append(F.sum(F.col(cj) * F.col("x")).alias(f"a_{j}"))
        if with_grad:
            aggs.append(free_sum(F.col(cj) * F.col("grad"), f"g_{j}"))
        for l in range(j, len(wcols)):
            aggs.append(free_sum(F.col(cj) * F.col(wcols[l]), f"D_{j}_{l}"))
    if with_grad:
        aggs.append(free_sum(F.col("grad") ** 2, "gn2"))
        aggs.append(F.sum(F.col("x") * F.col("grad")).alias("xax"))
    aggs.append(F.sum("step2").alias("step2"))
    aggs.append(F.sum(free.cast("long")).alias("n_free"))
    return aggs


def _parse(m: dict, d: int) -> Moments:
    """``Moments`` out of the observed aggregates ``m`` (without ``grad``, 0s)."""
    def vec(key: str) -> np.ndarray:
        return np.array([float(m.get(f"{key}_{j}", 0.0)) for j in range(d)])

    D = np.array([[float(m[f"D_{min(j, l)}_{max(j, l)}"]) for l in range(d)] for j in range(d)])
    return Moments(vec("a"), D, vec("g"), float(np.sqrt(m.get("gn2", 0.0))),
                   float(m.get("xax", 0.0)), float(np.sqrt(m["step2"])), int(m["n_free"]))


def _checkpoint(df: DataFrame, aggs: list[Column]) -> tuple[DataFrame, dict]:
    """Materialise ``df`` with its lineage truncated, and take ``aggs`` over
    it in the same Spark jobs."""
    obs = Observation()
    df = df.observe(obs, *aggs).localCheckpoint(eager=True)
    return df, obs.get


def _projected(wcols: list[str], lam: np.ndarray, shift: Column) -> Column:
    """``clip(x + shift − Σ_j λ_j w_j)`` on free coordinates; fixed ones keep ``x``."""
    for j, cj in enumerate(wcols):
        shift = shift - F.lit(float(lam[j])) * F.col(cj)
    return F.when(
        ~F.col("fixed"), F.greatest(F.lit(-1.0), F.least(F.lit(1.0), F.col("x") + shift))
    ).otherwise(F.col("x"))


def _with_gradient(state: DataFrame, passthrough: list[Column]) -> DataFrame:
    """Add ``grad = Σ_{u∈N(id)} x_u`` to every row of ``state`` with one
    shuffle: each vertex sends its ``x`` along its ``nbrs``, and its own row
    meets the messages it receives in one ``groupBy``. ``passthrough`` keeps
    the vertex columns (``first`` non-null value of each)."""
    msgs = state.select(F.explode("nbrs").alias("id"), F.col("x").alias("msg"))
    return (
        state.unionByName(msgs, allowMissingColumns=True)
        .groupBy("id")
        .agg(*passthrough, F.coalesce(F.sum("msg"), F.lit(0.0)).alias("grad"))
    )


def gd_relax_spark(
    edges: DataFrame,
    vertices: DataFrame,
    params: GDParams,
    x0: pd.DataFrame | None = None,
) -> DataFrame:
    """Run the GD relaxation; returns ``[id, w_*, x, fixed]`` (fractional).

    ``x0`` (pandas ``[id, x]``) overrides the zero start — used by tests to
    cross-check against the numpy reference without sampling noise twice.
    The one-shot projection (§3.1) is the only one a step can take from its
    observed scalars, so any other ``params.projection`` raises ``ValueError``.
    """
    if params.projection != "one_shot":
        raise ValueError(
            f"the Spark engine runs only the one_shot projection, got {params.projection!r}"
        )
    wcols = _weight_cols(vertices)
    d = len(wcols)

    state = vertices.select("id", *wcols)
    if x0 is not None:
        x0_df = edges.sparkSession.createDataFrame(x0[["id", "x"]])
        state = state.join(x0_df, "id", "left").withColumn("x", F.coalesce("x", F.lit(0.0)))
        prev = F.col("x")
    else:
        # Noise at t=0 only (§3.2): x^(0)=0 plus Gaussian noise. It is drawn on
        # the vertex table itself, before any join, so it depends only on the
        # seed and on the vertex table's own partitioning.
        sigma = params.noise_sigma_mult / params.n_iter
        state = state.withColumn("x", F.randn(params.seed) * F.lit(sigma))
        prev = F.lit(0.0)
    nbrs = (
        symmetrize(edges)
        .groupBy(F.col("src").alias("id"))
        .agg(F.collect_list("dst").alias("nbrs"))
    )
    # A full join keeps the ids found only in the edges: their rows have a
    # null ``fixed``, which the start checkpoint counts.
    state = state.withColumns({"step2": F.lit(0.0), "fixed": F.lit(False)}).join(nbrs, "id", "full")
    # Column expressions are built once: each costs py4j calls on the driver.
    passthrough = [
        F.first(c, ignorenulls=True).alias(c) for c in (*wcols, "x", "step2", "fixed", "nbrs")
    ]
    step_moments, last_moments = _moments(wcols), _moments(wcols, False)
    totals = [F.sum(c).alias(f"total_{j}") for j, c in enumerate(wcols)]
    state, m = _checkpoint(
        _with_gradient(state, passthrough),
        step_moments + totals + [
            F.count(F.lit(1)).alias("n"),
            F.count_if(F.col("fixed").isNull()).alias("n_missing"),
        ],
    )
    if m["n_missing"]:
        raise ValueError(
            f"edge table has {m['n_missing']} endpoint(s) missing from the vertex table"
        )
    b = params.eps * np.array([float(m[f"total_{j}"]) for j in range(d)])

    def step(gamma: float, lam: np.ndarray, fix: bool, last: bool) -> Moments:
        nonlocal state, prev
        x_next = _projected(wcols, lam, F.lit(gamma) * F.col("grad"))
        step2 = (x_next - prev) ** 2
        fixed = F.col("fixed")
        if fix:
            newly = ~fixed & (F.abs(x_next) >= params.fix_threshold)
            x_next = F.when(newly, F.signum(x_next)).otherwise(x_next)
            fixed = fixed | newly
        nxt = state.select(
            "id", *wcols, x_next.alias("x"), step2.alias("step2"), fixed.alias("fixed"), "nbrs"
        )
        prev = F.col("x")
        # The last iterate needs no gradient: one narrow pass.
        nxt = nxt.drop("nbrs") if last else _with_gradient(nxt, passthrough)
        state, moments = _checkpoint(nxt, last_moments if last else step_moments)
        return _parse(moments, d)

    def shift(lam: np.ndarray) -> Moments:
        nonlocal state
        state, moments = _checkpoint(
            state.withColumn("x", _projected(wcols, lam, F.lit(0.0))), last_moments
        )
        return _parse(moments, d)

    relax(_parse(m, d), b, m["n"], params, step, shift)
    return state.select("id", *wcols, "x", "fixed")


def gd_bipartition_spark(edges: DataFrame, vertices: DataFrame, params: GDParams) -> DataFrame:
    """Full distributed GD 2-partitioner; returns assignment ``[id, part]``.

    Rounding + repair run on the driver over the collected fractional vector
    (an O(n log n + n·d + flips·d) pass, like the paper's centralized
    λ-search; see DESIGN.md §3).
    """
    wcols = _weight_cols(vertices)
    frac = gd_relax_spark(edges, vertices, params)
    pdf = frac.select("id", *wcols, "x").toPandas().sort_values("id")
    W = pdf[wcols].to_numpy(dtype=float)
    part = round_to_halves(pdf["x"].to_numpy(), W, params.eps, params.seed)
    out = pd.DataFrame({"id": pdf["id"].to_numpy(), "part": part})
    return edges.sparkSession.createDataFrame(out)
