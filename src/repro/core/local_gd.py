"""Reference (single-machine numpy) implementation of Algorithm 1.

This mirrors the distributed implementation exactly — same update formulas,
same projection choices — and serves three purposes:

1. ground truth for cross-checking the Spark implementation on small graphs,
2. the sub-problem solver inside deep recursive partitioning (DESIGN.md §3),
3. the fast engine for the parameter-study experiments (Figs 8-10), which
   sweep dozens of configurations.

Input is a canonical pandas edge list (``src < dst``, ids 0..n-1) and a
weight matrix ``W`` of shape (n, d).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import projection_np as P
from repro.core.params import GDHistory, GDParams
from repro.core.rounding import round_to_halves


def _symmetric_arrays(edges: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    s = edges.src.to_numpy()
    d = edges.dst.to_numpy()
    return np.concatenate([s, d]), np.concatenate([d, s])


def fractional_locality(edges: pd.DataFrame, x: np.ndarray) -> float:
    """Expected locality of the randomized rounding of ``x``:
    ``(1/m)·Σ_{(u,v)∈E} (x_u x_v + 1)/2`` (§2.1)."""
    s = edges.src.to_numpy()
    d = edges.dst.to_numpy()
    return float(np.mean((x[s] * x[d] + 1.0) * 0.5))


def _project(y, W, b, method, target, fixed, x_fixed):
    if method == "one_shot":
        return P.one_shot_alternating(y, W, b, fixed, x_fixed, target)
    if method == "alternating":
        return P.alternating(y, W, b, fixed, x_fixed, target=target)
    if method == "dykstra":
        return P.dykstra(y, W, b, fixed, x_fixed)
    return P.project_exact(y, W, b, fixed, x_fixed)


def gd_relax_local(
    edges: pd.DataFrame,
    W: np.ndarray,
    params: GDParams,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, GDHistory]:
    """Run the continuous GD relaxation; returns final fractional ``x`` and
    (optionally populated) per-iteration history.

    The loop stops once every vertex is fixed; the history still has
    ``n_iter`` entries."""
    n, d = W.shape
    sym_src, sym_dst = _symmetric_arrays(edges)
    b = params.eps * W.sum(axis=0)
    rng = np.random.default_rng(params.seed)
    hist = GDHistory()

    x = np.zeros(n) if x0 is None else x0.astype(float).copy()
    fixed = np.zeros(n, dtype=bool)
    target_len = params.step_mult * np.sqrt(n) / params.n_iter
    gamma: float | None = None

    for t in range(params.n_iter):
        z = x.copy()
        if t == 0 and x0 is None:
            # Escape the saddle at x=0 (noise only at t=0, §3.2).
            z[~fixed] += rng.normal(0.0, params.noise_sigma_mult / params.n_iter, (~fixed).sum())
        grad = np.bincount(sym_dst, weights=z[sym_src], minlength=n)
        gnorm = float(np.linalg.norm(grad[~fixed]))
        if not params.adaptive or gamma is None:
            # Fixed step LENGTH (Fig 8): normalize every iteration so
            # ‖γ·grad‖ = target_len; the adaptive mode instead feeds back the
            # realized post-projection progress (§3.2).
            gamma = target_len / max(gnorm, 1e-12)
        y = z.copy()
        y[~fixed] = z[~fixed] + gamma * grad[~fixed]
        x_new = _project(y, W, b, params.projection, params.projection_target, fixed, x)
        step = float(np.linalg.norm(x_new - x))
        if params.adaptive and step > 1e-12:
            gamma *= float(np.clip(target_len / step, 0.5, 2.0))
        x = x_new
        if params.fixing and t >= params.fix_start:
            newly = (~fixed) & (np.abs(x) >= params.fix_threshold)
            x[newly] = np.sign(x[newly])
            fixed |= newly
        if params.record_history:
            hist.locality.append(fractional_locality(edges, x))
            s = W.T @ x
            hist.max_imbalance.append(float(np.max(np.abs(s) / np.maximum(W.sum(axis=0), 1e-12))))
            hist.step_len.append(step)
            hist.n_fixed.append(int(fixed.sum()))
        if fixed.all():
            # A fixed coordinate keeps its x in every projection, the final
            # one included, so no later step can change the output.
            break

    if params.record_history:
        # The skipped steps would each have recorded a zero step from the
        # same point.
        pad = params.n_iter - len(hist.step_len)
        hist.locality += hist.locality[-1:] * pad
        hist.max_imbalance += hist.max_imbalance[-1:] * pad
        hist.step_len += [0.0] * pad
        hist.n_fixed += hist.n_fixed[-1:] * pad

    if params.final_project:
        # One-shot projections drift slightly out of K; finish with slab
        # projections of the free coordinates until x is feasible (§3.1).
        free = ~fixed
        W_free = W[free]
        D = W_free.T @ W_free
        for _ in range(P.FINAL_PROJECT_ITERS):
            lam = P.final_slab_lambdas(W.T @ x, D, b)
            if lam is None:
                break
            x[free] = np.clip(x[free] - W_free @ lam, -1.0, 1.0)
    return x, hist


def gd_bipartition_local(
    edges: pd.DataFrame,
    W: np.ndarray,
    params: GDParams,
) -> tuple[np.ndarray, GDHistory]:
    """Full GD 2-partitioner: relaxation + rounding + repair.

    Returns parts in {0, 1} (part 1 ⇔ rounded to +1) and the GD history.
    """
    x, hist = gd_relax_local(edges, W, params)
    return round_to_halves(x, W, params.eps, params.seed), hist
