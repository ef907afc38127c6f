"""Projection algorithms for the GD feasible region (paper §2.2, §3.1, App. A).

The feasible region is ``K = B_inf ∩ ⋂_j S^j`` where ``B_inf = [-1,1]^n`` and
``S^j = {x : |⟨w_j, x⟩| ≤ b_j}`` (the paper writes ``b_j = ε·Σ_i w_i^(j)``).

The one-shot alternating projection (§3.1) needs only *scalars* of the
vector: the inner products ``s_j = ⟨w_j, y⟩`` and the free-coordinate Gram
matrix ``D_jk = Σ_free w_j w_k``. Sequentially projecting on the d
hyperplanes updates these scalars analytically (``sequential_lambdas``), so
the whole projection costs one aggregation + one map over the vector — this
is how the ``O(|E|/m + ...)`` distributed step of Theorem 1.1 is realized.
Both GD engines take their one-shot step and their final projection from
these λ: numpy applies them to an array, Spark to a DataFrame column.

GD's other projection (``GDParams.projection='exact'``) is
``project_exact``. Implemented methods, all pure numpy:

- ``clip_box`` / ``project_slab`` / ``project_plane`` — primitive projections.
- ``sequential_lambdas`` — the multipliers of the sequential plane/slab
  projections, from ``(s, D)``; the one-shot step is the plane pass followed
  by one box clip. ``final_slab_lambdas`` wraps the slab pass with the
  stopping rule of the final projection before rounding.
- ``dykstra`` — Dykstra's algorithm over the d slabs + box; converges to the
  *exact* projection (ground truth in tests, and ``project_exact`` for d>2).
- ``exact_d1`` / ``exact_d2`` / ``project_exact`` — the paper's KKT-based
  exact projections (Theorem 1.1): breakpoint walk for d=1 (O(n log n)) and,
  for d=2, the nested search of Appendix A as one monotone search for the
  slab-1 multiplier over the exact d=1 projection onto slab 2 (no sign
  guesses: the sign of ⟨w_1, ·⟩ at λ=0 picks the face).

All functions accept a boolean ``fixed`` mask: fixed coordinates never move
(vertex fixing, §3.2) but still contribute to the balance sums.
"""
from __future__ import annotations

import numpy as np

_TOL = 1e-9
# Bracket doublings of the d=2 search past λ = (‖y‖∞+1)/max w_1 before the
# slab-1 face counts as out of reach. GD inputs reach it below 3 times that λ;
# far beyond, y − λ·w_1 keeps too few digits of y to place x.
_MAX_DOUBLINGS = 24
# Euclidean distance from the KKT point at which the d=2 search stops.
_D2_TOL = 1e-10


def clip_box(y: np.ndarray, fixed: np.ndarray | None = None, x_fixed: np.ndarray | None = None) -> np.ndarray:
    """Project onto [-1,1]^n; fixed coordinates keep their ``x_fixed`` value."""
    x = np.clip(y, -1.0, 1.0)
    if fixed is not None and fixed.any():
        x[fixed] = x_fixed[fixed]
    return x


def project_plane(y: np.ndarray, w: np.ndarray, c: float = 0.0, fixed: np.ndarray | None = None) -> np.ndarray:
    """Project onto the hyperplane ``⟨w, x⟩ = c`` moving only free coords."""
    free = np.ones_like(y, dtype=bool) if fixed is None else ~fixed
    denom = float(np.dot(w[free], w[free]))
    if denom == 0.0:
        return y.copy()
    lam = (float(np.dot(w, y)) - c) / denom
    x = y.copy()
    x[free] = y[free] - lam * w[free]
    return x


def project_slab(y: np.ndarray, w: np.ndarray, b: float, fixed: np.ndarray | None = None) -> np.ndarray:
    """Project onto the slab ``|⟨w, x⟩| ≤ b`` moving only free coords."""
    s = float(np.dot(w, y))
    if abs(s) <= b:
        return y.copy()
    return project_plane(y, w, np.sign(s) * b, fixed)


def sequential_lambdas(
    s: np.ndarray,
    D: np.ndarray,
    b: np.ndarray,
    target: str = "plane",
) -> np.ndarray:
    """Multipliers λ_j of the sequential balance projections.

    After the sequential pass the vector update is
    ``y_free ← y_free − Σ_j λ_j w_j`` (then box clip). ``s`` holds ⟨w_j, y⟩
    over *all* coordinates, ``D`` the free-coordinate Gram matrix, ``b`` the
    slab half-widths. ``target='plane'`` drives each ⟨w_j,·⟩ to 0 (§3.1);
    ``'slab'`` only to the nearest ε-face.
    """
    d = s.size
    lam = np.zeros(d)
    for j in range(d):
        s_cur = float(s[j]) - float(np.dot(lam[:j], D[:j, j]))
        c = 0.0 if target == "plane" else float(np.clip(s_cur, -b[j], b[j]))
        lam[j] = (s_cur - c) / D[j, j] if D[j, j] > 0 else 0.0
    return lam


# Rounds of the final projection before rounding (§3.1, Fig 9).
FINAL_PROJECT_ITERS = 100


def final_slab_lambdas(s: np.ndarray, D: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One round of the final projection, shared by both GD engines.

    Returns the slab multipliers of the point with moments ``s`` and free
    Gram matrix ``D``, or None once there is nothing left to do: the point
    is feasible (``|s_j| ≤ b_j + 1e-9·(1+|b_j|)``) or every multiplier is
    negligible (``max|λ| < 1e-7``).
    """
    if (np.abs(s) <= b + 1e-9 * (1 + np.abs(b))).all():
        return None
    lam = sequential_lambdas(s, D, b, "slab")
    if float(np.abs(lam).max(initial=0.0)) < 1e-7:
        return None
    return lam


def dykstra(
    y: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 5000,
) -> np.ndarray:
    """Dykstra's algorithm over [slab_1, .., slab_d, box]; converges to the
    exact projection onto K (§3.1 method 2). Ground truth for tests."""
    d = W.shape[1]
    sets = d + 1
    x = y.copy()
    p = np.zeros((sets, y.size))
    for _ in range(max_iter):
        x_prev = x.copy()
        p_prev = p.copy()
        for s in range(sets):
            z = x + p[s]
            if s < d:
                xn = project_slab(z, W[:, s], float(b[s]), fixed)
            else:
                xn = clip_box(z, fixed, x_fixed)
            p[s] = z - xn
            x = xn
        # x can repeat across a cycle while the increments still move (e.g.
        # the box clip lands on the same vertex twice), so both must settle.
        if float(np.linalg.norm(x - x_prev)) + float(np.linalg.norm(p - p_prev)) < tol:
            break
    return x


# ---------------------------------------------------------------------------
# Exact projections for d <= 2 (paper §2.2 + Appendix A)
# ---------------------------------------------------------------------------

def _solve_lambda_eq(y: np.ndarray, w: np.ndarray, c: float) -> float | None:
    """Find λ with ``Σ_i h_i(λ) = c`` where ``h_i(λ) = w_i·[y_i − λ w_i]``
    and ``[z]`` is truncation to [-1,1]. Requires ``w > 0`` element-wise.

    ``h`` is monotone non-increasing piecewise linear; breakpoints are
    ``(y_i∓1)/w_i``. Binary search over sorted breakpoints, then a linear
    solve inside the containing segment — O(n log n). Returns None if ``c``
    is outside the achievable range ``[-Σw, Σw]``.
    """
    total = float(w.sum())
    if c > total + _TOL or c < -total - _TOL:
        return None
    if w.size == 0:
        # No coordinate can move: h ≡ 0, which is c within tolerance.
        return 0.0

    def h(lam: float) -> float:
        return float(np.dot(w, np.clip(y - lam * w, -1.0, 1.0)))

    bp = np.unique(np.concatenate([(y - 1.0) / w, (y + 1.0) / w]))
    # h is constant (=±Σw) outside [bp[0], bp[-1]]; pick the boundary for the
    # (near-)extreme targets for determinism.
    if c >= total - _TOL:
        return float(bp[0])
    if c <= -total + _TOL:
        return float(bp[-1])
    # Binary search for the segment [bp[j], bp[j+1]] with h(bp[j]) >= c >= h(bp[j+1]).
    lo, hi = 0, len(bp) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if h(bp[mid]) >= c:
            lo = mid
        else:
            hi = mid
    lam_l, lam_r = float(bp[lo]), float(bp[hi])
    mid = 0.5 * (lam_l + lam_r)
    sigma = mid * w
    at_plus = sigma < y - 1.0  # x_i = +1 region
    at_minus = sigma > y + 1.0  # x_i = -1 region
    lin = ~(at_plus | at_minus)
    const = float(w[at_plus].sum() - w[at_minus].sum() + np.dot(w[lin], y[lin]))
    slope = float(np.dot(w[lin], w[lin]))
    if slope <= 0.0:
        # h constant on the segment; any λ in it satisfies h = c (up to tol).
        return lam_l
    lam = (const - c) / slope
    return float(np.clip(lam, lam_l, lam_r))


def exact_d1(
    y: np.ndarray,
    w: np.ndarray,
    b: float,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Exact projection onto ``B_inf ∩ {|⟨w,x⟩| ≤ b}`` (§2.2, d=1).

    Case λ=0 (box clip already feasible) is detected first; otherwise the
    active slab face is an equality and λ is found by the breakpoint walk.
    Only free coordinates of positive weight move: fixed ones add their
    ``⟨w, x_fixed⟩`` to the sum, and zero-weight ones do not affect it.
    """
    if (w < 0).any():
        raise ValueError("weight functions are nonnegative (w: V -> R+)")
    x = clip_box(y, fixed, x_fixed)
    s = float(np.dot(w, x))
    if abs(s) <= b + _TOL:
        return x
    sel = w > 0
    c_off = 0.0
    if fixed is not None:
        sel &= ~fixed
        if fixed.any():
            c_off = float(np.dot(w[fixed], x_fixed[fixed]))
    y_sub, w_sub = y[sel], w[sel]
    lam = _solve_lambda_eq(y_sub, w_sub, np.sign(s) * b - c_off)
    if lam is not None:  # else b exceeds the reachable sum: the box clip
        x[sel] = np.clip(y_sub - lam * w_sub, -1.0, 1.0)
    return x


def exact_d2(
    y: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Exact projection onto ``B_inf ∩ S^1 ∩ S^2`` by a nested monotone
    search (Appendix A).

    Slab 1 is relaxed with a multiplier λ: ``x(λ) = exact_d1(y − λ·w_1)``
    onto slab 2 is the exact projection onto ``B_inf ∩ S^2``, so
    ``φ(λ) = ⟨w_1, x(λ)⟩`` is continuous and non-increasing (a projection
    is monotone). λ = 0 if ``|φ(0)| ≤ b_1``; otherwise λ solves
    ``φ(λ) = sign(φ(0))·b_1`` on the side φ(0) points to: a bracket is
    doubled, then halved, and x is taken at its end inside slab 1, within
    ``_D2_TOL`` (Euclidean) of the x that meets the KKT conditions of the
    projection. Only fixed coordinates can put the face out of reach (K is
    then empty); x at the last bracket, the point of ``B_inf ∩ S^2`` nearest
    that face the search reaches, is returned as a best effort.
    """
    if W.shape[1] != 2:
        raise ValueError(f"exact_d2 needs d=2 weight columns, got {W.shape[1]}")
    if (W < 0).any():
        raise ValueError("weight functions are nonnegative (w: V -> R+)")
    w1, w2 = W[:, 0], W[:, 1]
    b1, b2 = float(b[0]), float(b[1])

    def x_at(lam: float) -> np.ndarray:
        return exact_d1(y - lam * w1, w2, b2, fixed, x_fixed)

    x = x_at(0.0)
    phi = float(np.dot(w1, x))
    if abs(phi) <= b1 + _TOL:
        return x
    # With λ = sign·t, ψ(t) = sign·φ(λ) is non-increasing from ψ(0) > b_1.
    sign = float(np.sign(phi))
    lo, hi = 0.0, 1.0 / float(w1.max())
    for _ in range(_MAX_DOUBLINGS + int(np.log2(np.abs(y).max() + 1.0))):
        x = x_at(sign * hi)
        if sign * float(np.dot(w1, x)) <= b1:
            break
        lo, hi = hi, 2.0 * hi
    else:
        return x
    # x(λ) moves by at most |Δλ|·‖w_1‖ (a projection is non-expansive), so
    # the bracket is halved until its feasible end is within _D2_TOL of the
    # projection.
    for _ in range(max(0, int(np.ceil(np.log2((hi - lo) * np.linalg.norm(w1) / _D2_TOL))))):
        mid = 0.5 * (lo + hi)
        x_mid = x_at(sign * mid)
        if sign * float(np.dot(w1, x_mid)) <= b1:
            hi, x = mid, x_mid
        else:
            lo = mid
    return x


def project_exact(
    y: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Exact projection dispatch: ``exact_d1`` for d=1 and its monotone
    search ``exact_d2`` for d=2; d>2 falls back to Dykstra (paper: exact
    d>2 is an open problem, §5)."""
    d = W.shape[1]
    if d == 1:
        return exact_d1(y, W[:, 0], float(b[0]), fixed, x_fixed)
    if d == 2:
        return exact_d2(y, W, b, fixed, x_fixed)
    return dykstra(y, W, b, fixed, x_fixed)
