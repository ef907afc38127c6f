"""Distributed GD (Algorithm 1) on Spark DataFrames: the iterate of the loop
``local_gd.relax``, which both engines share.

The iterate is one checkpointed DataFrame
``[id, w_0.., x, step2, fixed, nbrs, grad]``: each vertex row holds its own
state, the square of its last step ``step2`` (see ``GDParams.adaptive``), its
adjacency array ``nbrs`` (empty for a vertex without edges) and the gradient
``grad = (Ax)_id = Σ_{u∈N(id)} x_u`` of its ``x``. This is the
vertex-centric layout of Pregel/GraphX (Gonzalez et al., OSDI'14). One GD
iteration is one Spark plan with one shuffle:

1. a narrow ``select`` applies the projected update
   ``x ← clip(x + γ·grad − Σ_j λ_j w_j)`` and vertex fixing, and packs the
   vertex columns into one struct ``v = struct(w_*, x, step2, fixed, nbrs)``,
2. ``explode(v.nbrs)`` emits one message ``(dst, x)`` per directed edge,
3. the messages and the vertex rows are unioned and grouped by ``id`` (the
   shuffle) with two aggregates: ``first(v)`` passes the vertex through and
   the messages sum to ``grad``; ``v.*`` unpacks it again,
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

The start is two checkpoints. The first builds the adjacency once: vertex
rows and directed-edge rows meet in one ``groupBy(id)`` that collects
``nbrs``, and its ``observe`` takes the weight totals, the row count and the
ids that only the edges name. The second takes the start's gradient on it,
like a step.

A step's expressions are SQL text, with γ and λ as double literals: each
``Column`` built through the Python API costs the driver py4j round trips,
and a step would rebuild them all.
"""
from __future__ import annotations

import math

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


def _lit(value: float) -> str:
    """``value`` as a SQL double literal; Spark parses it back to the same
    double. Raises ``ValueError`` for a value that is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"GD step scalar is not finite: {value!r}")
    return f"({value!r}D)"


def _moments(wcols: list[str], with_grad: bool = True) -> list[Column]:
    """Aggregates of the iterate that ``relax`` reads (``local_gd.Moments``):
    ``a_j = ⟨w_j, x⟩``, the free Gram matrix ``D_j_l``, the squared step
    length ``step2`` and the number of free vertices ``n_free``; with the
    gradient also ``g_j = ⟨w_j, grad⟩_free``, ``gn2 = ‖grad‖²_free`` and
    ``xax = ⟨x, grad⟩``."""
    def free_sum(e: str, name: str) -> str:
        return f"sum(CASE WHEN NOT fixed THEN {e} ELSE 0.0D END) AS {name}"

    aggs = []
    for j, cj in enumerate(wcols):
        aggs.append(f"sum({cj} * x) AS a_{j}")
        if with_grad:
            aggs.append(free_sum(f"{cj} * grad", f"g_{j}"))
        for l in range(j, len(wcols)):
            aggs.append(free_sum(f"{cj} * {wcols[l]}", f"D_{j}_{l}"))
    if with_grad:
        aggs.append(free_sum("pow(grad, 2)", "gn2"))
        aggs.append("sum(x * grad) AS xax")
    aggs.append("sum(step2) AS step2")
    aggs.append("sum(CAST(NOT fixed AS BIGINT)) AS n_free")
    return [F.expr(a) for a in aggs]


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


def _projected(wcols: list[str], lam: np.ndarray, shift: str) -> str:
    """``clip(x + shift − Σ_j λ_j w_j)`` on free coordinates; fixed ones keep ``x``."""
    for lj, cj in zip(lam, wcols):
        shift = f"{shift} - {_lit(lj)} * {cj}"
    return f"CASE WHEN NOT fixed THEN greatest(-1.0D, least(1.0D, x + ({shift}))) ELSE x END"


def _packed(wcols: list[str], x: str, step2: str, fixed: str) -> str:
    """The vertex row as the one struct ``v`` that crosses the shuffle."""
    return f"struct({', '.join(wcols)}, {x} AS x, {step2} AS step2, {fixed} AS fixed, nbrs) AS v"


_PASS_VERTEX = "first(v, true) AS v"
_SUM_MESSAGES = "coalesce(sum(msg), 0.0D) AS grad"


def _with_gradient(rows: DataFrame, aggs: list[Column]) -> DataFrame:
    """Unpack ``rows`` (``[id, v]``) and add ``grad = Σ_{u∈N(id)} x_u`` with
    one shuffle: each vertex sends its ``x`` along its ``nbrs``, and its own
    row meets the messages it receives in one ``groupBy``, whose ``aggs``
    are ``_PASS_VERTEX`` and ``_SUM_MESSAGES``."""
    msgs = rows.selectExpr("explode(v.nbrs) AS id", "v.x AS msg")
    return (
        rows.unionByName(msgs, allowMissingColumns=True)
        .groupBy("id")
        .agg(*aggs)
        .selectExpr("id", "v.*", "grad")
    )


def gd_relax_spark(
    edges: DataFrame,
    vertices: DataFrame,
    params: GDParams,
    x0: pd.DataFrame | None = None,
) -> tuple[DataFrame, list[Moments]]:
    """Run the GD relaxation; returns ``[id, w_*, x, fixed]`` (fractional)
    and ``relax``'s trace of ``n_iter`` moments, as ``gd_relax_local`` does.

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
        state = state.join(x0_df, "id", "left").selectExpr("id", *wcols, "coalesce(x, 0.0D) AS x")
        prev = "x"
    else:
        # Noise at t=0 only (§3.2): x^(0)=0 plus Gaussian noise. It is drawn on
        # the vertex table itself, before any shuffle, so it depends only on
        # the seed and on the vertex table's own partitioning.
        sigma = _lit(params.noise_sigma)
        state = state.selectExpr("id", *wcols, f"randn({int(params.seed)}L) * {sigma} AS x")
        prev = "0.0D"
    # The adjacency, built once: an id that only the edges name gets a null
    # ``v``, so a null ``fixed``, which this checkpoint counts.
    adjacency = (
        state.selectExpr("id", f"struct({', '.join(wcols)}, x, 0.0D AS step2, false AS fixed) AS v")
        .unionByName(symmetrize(edges).selectExpr("src AS id", "dst AS nbr"),
                     allowMissingColumns=True)
        .groupBy("id")
        .agg(F.expr(_PASS_VERTEX), F.expr("collect_list(nbr) AS nbrs"))
        .selectExpr("id", "v.*", "nbrs")
    )
    state, m = _checkpoint(
        adjacency,
        [F.expr(f"sum({c}) AS total_{j}") for j, c in enumerate(wcols)]
        + [F.expr("count(1) AS n"), F.expr("count_if(fixed IS NULL) AS n_missing")],
    )
    if m["n_missing"]:
        raise ValueError(
            f"edge table has {m['n_missing']} endpoint(s) missing from the vertex table"
        )
    b = params.eps * np.array([float(m[f"total_{j}"]) for j in range(d)])
    n = m["n"]
    # Column objects are built once: each costs py4j calls on the driver.
    gradient_aggs = [F.expr(_PASS_VERTEX), F.expr(_SUM_MESSAGES)]
    step_moments, last_moments = _moments(wcols), _moments(wcols, False)
    state, m = _checkpoint(
        _with_gradient(state.selectExpr("id", _packed(wcols, "x", "step2", "fixed")), gradient_aggs),
        step_moments,
    )

    def step(gamma: float, lam: np.ndarray, fix: bool, last: bool) -> Moments:
        nonlocal state, prev
        x_next = _projected(wcols, lam, f"{_lit(gamma)} * grad")
        step2 = f"pow({x_next} - {prev}, 2)"
        fixed = "fixed"
        if fix:
            newly = f"(NOT fixed AND abs({x_next}) >= {_lit(params.fix_threshold)})"
            x_next = f"CASE WHEN {newly} THEN signum({x_next}) ELSE {x_next} END"
            fixed = f"(fixed OR {newly})"
        prev = "x"
        if last:
            # The last iterate needs no gradient: one narrow pass.
            nxt = state.selectExpr(
                "id", *wcols, f"{x_next} AS x", f"{step2} AS step2", f"{fixed} AS fixed"
            )
        else:
            nxt = _with_gradient(
                state.selectExpr("id", _packed(wcols, x_next, step2, fixed)), gradient_aggs
            )
        state, moments = _checkpoint(nxt, last_moments if last else step_moments)
        return _parse(moments, d)

    def shift(lam: np.ndarray) -> Moments:
        nonlocal state
        state, moments = _checkpoint(
            state.withColumn("x", F.expr(_projected(wcols, lam, "0.0D"))), last_moments
        )
        return _parse(moments, d)

    trace = relax(_parse(m, d), b, n, params, step, shift)
    return state.select("id", *wcols, "x", "fixed"), trace


def gd_bipartition_spark(
    edges: DataFrame, vertices: DataFrame, params: GDParams
) -> tuple[DataFrame, list[Moments]]:
    """Full distributed GD 2-partitioner; returns assignment ``[id, part]``
    and the GD trace.

    Rounding + repair run on the driver over the collected fractional vector
    (an O(n log n + n·d + flips·d) pass, like the paper's centralized
    λ-search; see DESIGN.md §3).
    """
    wcols = _weight_cols(vertices)
    frac, trace = gd_relax_spark(edges, vertices, params)
    pdf = frac.select("id", *wcols, "x").toPandas().sort_values("id")
    W = pdf[wcols].to_numpy(dtype=float)
    part = round_to_halves(pdf["x"].to_numpy(), W, params.eps, params.seed)
    out = pd.DataFrame({"id": pdf["id"].to_numpy(), "part": part})
    return edges.sparkSession.createDataFrame(out), trace
