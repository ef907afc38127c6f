"""Distributed GD (Algorithm 1) on Spark DataFrames.

The iterate is one checkpointed DataFrame
``[id, w_0.., x, x_prev, fixed, nbrs, grad]``: each vertex row holds its own
state, its adjacency array ``nbrs`` (null for a vertex without edges) and the
gradient ``grad = (Ax)_id = Σ_{u∈N(id)} x_u`` of its ``x``. This is the
vertex-centric layout of Pregel/GraphX (Gonzalez et al., OSDI'14). One GD
iteration is one Spark plan with one shuffle:

1. a narrow ``select`` applies the previous step's projected update
   ``x ← clip(x + γ·grad − Σ_j λ_j w_j)`` and vertex fixing,
2. ``explode(nbrs)`` emits one message ``(dst, x)`` per directed edge,
3. the messages and the vertex rows are unioned and grouped by ``id`` (the
   shuffle): the vertex columns pass through, the messages sum to ``grad``,
4. ``localCheckpoint(eager=True)`` materialises the new iterate and truncates
   its lineage, while ``observe`` takes every scalar the driver needs in the
   same pass: ``⟨w_j, x⟩``, ``⟨w_j, grad⟩_free``, the free Gram matrix ``D``,
   ``‖grad‖²_free``, the previous step length and the number of free
   vertices.

With adaptive execution that is two Spark jobs (the shuffle's map stage and
the checkpoint). The loop stops once no vertex is free: a fixed coordinate
keeps its ``x`` in every later projection, so the remaining steps could not
change the output. Only O(d²) scalars reach the driver per iteration, matching
the paper's distributed model (Theorem 1.1); the final rounding collects the
fractional vector, which is the same O(n) driver pass the paper performs
centrally for the projection's λ-search.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F

from repro.core.params import GDParams
from repro.core.projection_np import FINAL_PROJECT_ITERS, final_slab_lambdas, sequential_lambdas
from repro.core.rounding import round_to_halves
from repro.graphs.ops import symmetrize


def _weight_cols(vertices: DataFrame) -> list[str]:
    cols = sorted(c for c in vertices.columns if c.startswith("w_"))
    if not cols:
        raise ValueError("vertex table has no weight columns w_0..w_{d-1}")
    return cols


def _moments(wcols: list[str], with_grad: bool = True) -> list[Column]:
    """Aggregates feeding the λ-solve: ``a_j = ⟨w_j, x⟩`` and the free Gram
    matrix ``D_j_l``; with the gradient also ``g_j = ⟨w_j, grad⟩_free``,
    ``gn2 = ‖grad‖²_free``, ``prog2 = ‖x − x_prev‖²`` and the number of free
    vertices ``n_free``."""
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
        aggs.append(F.sum((F.col("x") - F.col("x_prev")) ** 2).alias("prog2"))
        aggs.append(F.sum((~F.col("fixed")).cast("long")).alias("n_free"))
    return aggs


def _gram(m: dict, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a, D)`` out of the observed moments ``m``."""
    a = np.array([float(m[f"a_{j}"]) for j in range(d)])
    D = np.zeros((d, d))
    for j in range(d):
        for l in range(j, d):
            D[j, l] = D[l, j] = float(m[f"D_{j}_{l}"])
    return a, D


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
        .where(F.col("fixed").isNotNull())  # messages to ids outside the vertex table
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
    spark = edges.sparkSession
    wcols = _weight_cols(vertices)
    d = len(wcols)

    state = vertices.select("id", *wcols)
    if x0 is not None:
        state = state.join(
            spark.createDataFrame(x0[["id", "x"]]), "id", "left"
        ).withColumn("x", F.coalesce(F.col("x"), F.lit(0.0)))
    else:
        # Noise at t=0 only (§3.2): x^(0)=0 plus Gaussian noise. It is drawn on
        # the vertex table itself, before any join, so it depends only on the
        # seed and on the vertex table's own partitioning.
        sigma = params.noise_sigma_mult / params.n_iter
        state = state.withColumn("x", F.randn(params.seed) * F.lit(sigma))
    nbrs = (
        symmetrize(edges)
        .groupBy(F.col("src").alias("id"))
        .agg(F.collect_list("dst").alias("nbrs"))
    )
    state = (
        state.withColumn("x_prev", F.col("x"))
        .withColumn("fixed", F.lit(False))
        .join(nbrs, "id", "left")
    )
    # Column expressions are built once: each costs py4j calls on the driver.
    passthrough = [
        F.first(c, ignorenulls=True).alias(c) for c in (*wcols, "x", "x_prev", "fixed", "nbrs")
    ]
    step_moments, last_moments = _moments(wcols), _moments(wcols, False)
    totals = [F.sum(c).alias(f"total_{j}") for j, c in enumerate(wcols)]
    state, m = _checkpoint(
        _with_gradient(state, passthrough),
        step_moments + totals + [F.count(F.lit(1)).alias("n")],
    )
    b = params.eps * np.array([float(m[f"total_{j}"]) for j in range(d)])
    target_len = params.step_mult * np.sqrt(m["n"]) / params.n_iter

    gamma: float | None = None
    for t in range(params.n_iter):
        if m["n_free"] == 0:
            # Fixed coordinates keep their x in every projection, the final
            # one included, so no later step can change the output.
            break
        prev_step = float(np.sqrt(max(m["prog2"], 0.0)))
        if not params.adaptive or gamma is None:
            # Fixed step length: renormalize against the current gradient.
            gamma = target_len / max(float(np.sqrt(max(m["gn2"], 0.0))), 1e-12)
        elif prev_step > 1e-12:
            gamma *= float(np.clip(target_len / prev_step, 0.5, 2.0))

        a, D = _gram(m, d)
        g = np.array([float(m[f"g_{j}"]) for j in range(d)])
        lam = sequential_lambdas(a + gamma * g, D, b, params.projection_target)

        x_next = _projected(wcols, lam, F.lit(gamma) * F.col("grad"))
        fixed = F.col("fixed")
        if params.fixing and t >= params.fix_start:
            newly = ~fixed & (F.abs(x_next) >= params.fix_threshold)
            x_next = F.when(newly, F.signum(x_next)).otherwise(x_next)
            fixed = fixed | newly
        nxt = state.select(
            "id", *wcols, x_next.alias("x"), F.col("x").alias("x_prev"),
            fixed.alias("fixed"), "nbrs",
        )
        if t + 1 < params.n_iter:
            state, m = _checkpoint(_with_gradient(nxt, passthrough), step_moments)
        else:
            # The last iterate needs no gradient: one narrow pass.
            state, m = _checkpoint(nxt.select("id", *wcols, "x", "fixed"), last_moments)

    if params.final_project:
        state = _final_alternating(state, m, wcols, b)
    return state.select("id", *wcols, "x", "fixed")


def _final_alternating(state: DataFrame, m: dict, wcols: list[str], b: np.ndarray) -> DataFrame:
    """Slab projections of the free coordinates until the point is feasible,
    before rounding — repairs the imbalance accumulated by one-shot
    projections (§3.1, Fig 9). The λ and the stopping rule are
    ``final_slab_lambdas``, shared with the numpy engine.

    ``m`` holds the moments of ``state``; each round takes those of its own
    result on that result's checkpoint."""
    moments = _moments(wcols, False)
    for _ in range(FINAL_PROJECT_ITERS):
        lam = final_slab_lambdas(*_gram(m, len(wcols)), b)
        if lam is None:
            break
        state, m = _checkpoint(state.withColumn("x", _projected(wcols, lam, F.lit(0.0))), moments)
    return state


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
