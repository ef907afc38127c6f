"""Reference (single-machine numpy) implementation of Algorithm 1.

Its loop, ``relax``, is also the Spark engine's, so the two engines take the
same steps. The numpy engine serves three purposes:

1. ground truth for cross-checking the Spark implementation on small graphs,
2. the sub-problem solver inside deep recursive partitioning (DESIGN.md §3),
3. the fast engine for the parameter-study experiments (Figs 8-10), which
   sweep dozens of configurations.

Input is a canonical pandas edge list (``src < dst``, ids 0..n-1) and a
weight matrix ``W`` of shape (n, d).
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pandas as pd

from repro.core import projection_np as P
from repro.core.params import GDParams
from repro.core.rounding import round_to_halves


class Moments(NamedTuple):
    """What ``relax`` reads of an iterate ``x`` with gradient ``grad = Ax``,
    and what its trace records of each step."""

    a: np.ndarray  # ⟨w_j, x⟩
    D: np.ndarray  # free Gram matrix Σ_free w_j w_l
    g: np.ndarray  # ⟨w_j, grad⟩ over free coordinates
    gnorm: float  # ‖grad‖ over free coordinates
    xax: float  # ⟨x, grad⟩: fractional locality is 0.5 + xax/(4|E|) (§2.1)
    step: float  # length of the step that reached x (see GDParams.adaptive)
    n_free: int


def relax(m: Moments, b: np.ndarray, n: int, params: GDParams,
          step: Callable[[float, np.ndarray, bool, bool], Moments],
          shift: Callable[[np.ndarray], Moments]) -> list[Moments]:
    """Algorithm 1's loop (§3.2) from a start point with moments ``m``, for
    ``n`` vertices and slab half-widths ``b``. The engine keeps the iterate:
    ``step(γ, λ, fix, last)`` sets the free ``x ← clip(x + γ·grad − Σ_j λ_j w_j)``
    and fixes ``|x| ≥ fix_threshold`` at ``sign(x)`` if ``fix`` (after the
    ``last`` step no one reads the gradient); ``shift(λ)`` sets the free
    ``x ← clip(x − Σ_j λ_j w_j)``. Both return the new iterate's moments.

    Returns the run's trace: the moments after each of the ``n_iter`` steps,
    before the final projection. A step that an early stop skips is recorded
    as the last entry with length 0."""
    target_len = params.step_mult * np.sqrt(n) / params.n_iter
    gamma: float | None = None
    trace: list[Moments] = []
    t = 0
    # A fixed coordinate keeps its x in every projection, the final one
    # included, so once no vertex is free no later step can change the output.
    while t < params.n_iter and m.n_free > 0:
        if not params.adaptive or gamma is None:
            # Fixed step length (Fig 8): ‖γ·grad‖ = target_len at every step;
            # the adaptive mode feeds back the realized step length (§3.2).
            gamma = target_len / max(m.gnorm, 1e-12)
        lam = P.sequential_lambdas(m.a + gamma * m.g, m.D, b)
        fix = params.fixing and t >= params.fix_start
        n_free = m.n_free
        m = step(gamma, lam, fix, t + 1 == params.n_iter)
        trace.append(m)
        if params.adaptive and m.step > 1e-12:
            gamma *= float(np.clip(target_len / m.step, 0.5, 2.0))
        if t > 0 and m.step == 0.0 and m.n_free == n_free:
            # x, the fixed set and γ are those this step started from, and
            # noise comes only at t=0: every later step repeats it until
            # fixing starts, and once it has started, to the end.
            t = min(params.fix_start, params.n_iter) if params.fixing and not fix else params.n_iter
            trace += [m] * (t - len(trace))
        else:
            t += 1
    trace += [m._replace(step=0.0)] * (params.n_iter - len(trace))
    if params.final_project:
        # One-shot projections drift slightly out of K; finish with slab
        # projections of the free coordinates until x is feasible (§3.1).
        for _ in range(P.FINAL_PROJECT_ITERS):
            lam = P.final_slab_lambdas(m.a, m.D, b)
            if lam is None:
                break
            m = shift(lam)
    return trace


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


def gd_relax_local(
    edges: pd.DataFrame,
    W: np.ndarray,
    params: GDParams,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[Moments]]:
    """Run the continuous GD relaxation (``relax``) on numpy arrays; returns
    final fractional ``x`` and ``relax``'s trace of ``n_iter`` moments.

    The one-shot step applies ``relax``'s λ; the exact projection ignores it
    and projects ``x + γ·grad`` with ``project_exact``. ``x0`` replaces the
    noisy zero start."""
    n = len(W)
    sym_src, sym_dst = _symmetric_arrays(edges)
    b = params.eps * W.sum(axis=0)
    prev = np.zeros(n) if x0 is None else x0.astype(float).copy()
    x = prev
    if x0 is None:
        # Escape the saddle at x=0 (noise only at t=0, §3.2).
        x = np.random.default_rng(params.seed).normal(0.0, params.noise_sigma, n)
    fixed = np.zeros(n, dtype=bool)
    free = W_free = grad = None

    def moments(step_len: float) -> Moments:
        nonlocal free, W_free, grad
        free = np.flatnonzero(~fixed)  # row indices: ``take`` beats a boolean mask
        W_free = W.take(free, axis=0)
        full = np.bincount(sym_dst, weights=x[sym_src], minlength=n)
        grad = full[free]
        return Moments(W.T @ x, W_free.T @ W_free, W_free.T @ grad,
                       float(np.linalg.norm(grad)), float(x @ full), step_len, len(free))

    def step(gamma: float, lam: np.ndarray, fix: bool, last: bool) -> Moments:
        nonlocal x, prev
        y = x.copy()
        if params.projection == "one_shot":
            y[free] = np.clip(x[free] + gamma * grad - W_free @ lam, -1.0, 1.0)
        else:
            y[free] += gamma * grad
            y = P.project_exact(y, W, b, fixed, x)
        step_len = float(np.linalg.norm(y - prev))
        x = prev = y
        if fix:
            newly = ~fixed & (np.abs(x) >= params.fix_threshold)
            x[newly] = np.sign(x[newly])
            fixed[newly] = True
        return moments(step_len)

    def shift(lam: np.ndarray) -> Moments:
        x[free] = np.clip(x[free] - W_free @ lam, -1.0, 1.0)
        return moments(0.0)

    trace = relax(moments(0.0), b, n, params, step, shift)
    return x, trace


def gd_bipartition_local(
    edges: pd.DataFrame,
    W: np.ndarray,
    params: GDParams,
) -> tuple[np.ndarray, list[Moments]]:
    """Full GD 2-partitioner: relaxation + rounding + repair.

    Returns parts in {0, 1} (part 1 ⇔ rounded to +1) and the GD trace.
    """
    x, trace = gd_relax_local(edges, W, params)
    return round_to_halves(x, W, params.eps, params.seed), trace
