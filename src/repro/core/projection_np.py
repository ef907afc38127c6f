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

Implemented methods, all pure numpy:

- ``clip_box`` / ``project_slab`` / ``project_plane`` — primitive projections.
- ``sequential_lambdas`` — the multipliers of the sequential plane/slab
  projections, from ``(s, D)``; ``final_slab_lambdas`` wraps it with the
  stopping rule of the final projection before rounding.
- ``one_shot_alternating`` — the paper's default: one plane projection per
  dimension, then one box clip (§3.1).
- ``alternating`` — alternating projections until convergence; converges to a
  point of K but not necessarily to the closest one.
- ``dykstra`` — Dykstra's algorithm over the d slabs + box; converges to the
  *exact* projection (used as ground truth in tests).
- ``exact_d1`` / ``exact_d2`` / ``project_exact`` — the paper's one-shot
  KKT-based exact projections (Theorem 1.1): breakpoint walk for d=1
  (O(n log n)) and nested binary search for d=2 (Appendix A), dispatched over
  the 3^d sign guesses of §2.2.

All functions accept a boolean ``fixed`` mask: fixed coordinates never move
(vertex fixing, §3.2) but still contribute to the balance sums.
"""
from __future__ import annotations

import numpy as np

_TOL = 1e-9


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


def one_shot_alternating(
    y: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
    target: str = "plane",
) -> np.ndarray:
    """One pass: project on each balance constraint sequentially, then the box.

    ``target='plane'`` projects onto ``⟨w_j,x⟩ = 0`` (the paper's §3.1 choice,
    which lies inside every slab); ``'slab'`` projects onto the slab faces.
    ``W`` is (n, d); ``b`` is (d,). The d projections are taken in λ-form:
    ``sequential_lambdas`` on ``s = Wᵀy`` and the free Gram matrix, then
    ``y_free − W_free·λ`` once.
    """
    if fixed is None or not fixed.any():
        lam = sequential_lambdas(W.T @ y, W.T @ W, b, target)
        return clip_box(y - W @ lam)
    free = ~fixed
    W_free = W[free]
    lam = sequential_lambdas(W.T @ y, W_free.T @ W_free, b, target)
    x = y.copy()
    x[free] -= W_free @ lam
    return clip_box(x, fixed, x_fixed)


def alternating(
    y: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
    target: str = "plane",
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> np.ndarray:
    """Alternating projections until movement < tol — a point of K, not
    necessarily the projection (§3.1 method 1)."""
    x = y.copy()
    for _ in range(max_iter):
        x_new = one_shot_alternating(x, W, b, fixed, x_fixed, target)
        if float(np.linalg.norm(x_new - x)) < tol:
            return x_new
        x = x_new
    return x


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
    """
    if (w < 0).any():
        raise ValueError("weight functions are nonnegative (w: V -> R+)")
    x0 = clip_box(y, fixed, x_fixed)
    s = float(np.dot(w, x0))
    if abs(s) <= b + _TOL:
        return x0
    res = _solve_eq_d1_general(y, w, np.sign(s) * b, fixed, x_fixed)
    if res is None:  # b exceeds reachable sum — box clip was the answer
        return x0
    return res[0]


def _solve_eq_d1_general(
    y: np.ndarray,
    w: np.ndarray,
    c: float,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
) -> tuple[np.ndarray, float] | None:
    """Solve min ||x-y|| s.t. box and ``⟨w,x⟩ = c`` exactly; returns (x, λ).

    Only free coordinates of positive weight move: fixed ones add their
    ``⟨w, x_fixed⟩`` to the sum, and zero-weight ones do not affect it."""
    sel = w > 0
    c_off = 0.0
    if fixed is not None:
        sel &= ~fixed
        if fixed.any():
            c_off = float(np.dot(w[fixed], x_fixed[fixed]))
    y_sub, w_sub = y[sel], w[sel]
    lam = _solve_lambda_eq(y_sub, w_sub, c - c_off)
    if lam is None:
        return None
    x = clip_box(y, fixed, x_fixed)
    x[sel] = np.clip(y_sub - lam * w_sub, -1.0, 1.0)
    return x, lam


def exact_d2(
    y: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
    tol: float = 1e-10,
) -> np.ndarray:
    """Exact projection onto ``B_inf ∩ S^1 ∩ S^2`` via the 3^2 sign guesses
    of §2.2; the (±,±) guesses use nested binary search (Appendix A).

    Every sign guess yields a *feasible* candidate (equality faces lie inside
    the slabs); the correct guess yields the KKT point, so the closest
    feasible candidate is the projection.
    """
    if W.shape[1] != 2:
        raise ValueError(f"exact_d2 needs d=2 weight columns, got {W.shape[1]}")
    if (W < 0).any():
        raise ValueError("weight functions are nonnegative (w: V -> R+)")
    w1, w2 = W[:, 0], W[:, 1]
    b1, b2 = float(b[0]), float(b[1])
    candidates: list[np.ndarray] = []

    def feasible(x: np.ndarray) -> bool:
        ftol = 1e-6 * (1.0 + abs(b1) + abs(b2))
        return (
            abs(float(np.dot(w1, x))) <= b1 + ftol
            and abs(float(np.dot(w2, x))) <= b2 + ftol
            and float(np.abs(x).max(initial=0.0)) <= 1.0 + 1e-9
        )

    # (0,0): plain box clip.
    x00 = clip_box(y, fixed, x_fixed)
    if feasible(x00):
        candidates.append(x00)

    # One active constraint: equality on one slab face, other dropped.
    for (wa, ba) in ((w1, b1), (w2, b2)):
        for sign in (1.0, -1.0):
            res = _solve_eq_d1_general(y, wa, sign * ba, fixed, x_fixed)
            if res is not None and feasible(res[0]):
                candidates.append(res[0])

    # Both active: find (λ1, λ2) with h1 = s1·b1 and h2 = s2·b2 by nested
    # binary search — inner solves λ2 exactly for a given λ1, outer bisects
    # on λ1 using monotonicity of Δ(λ1) (Definition A.1; direction unknown,
    # so a sign-change bracket is searched in both directions).
    def x_at(lam1: float, c2: float) -> np.ndarray | None:
        """x(λ1, λ2(λ1)) where λ2 enforces ⟨w2,x⟩ = c2. Fixed coordinates
        keep ``x_fixed``, not their shifted values (``clip_box``)."""
        res = _solve_eq_d1_general(y - lam1 * w1, w2, c2, fixed, x_fixed)
        return None if res is None else res[0]

    def delta(lam1: float, c2: float) -> float | None:
        """Δ(λ1) = ⟨w1, x(λ1, λ2(λ1))⟩."""
        x = x_at(lam1, c2)
        return None if x is None else float(np.dot(w1, x))

    scale = float(np.abs(y).max(initial=1.0)) + 1.0
    wmin = W[W > 0].min() if (W > 0).any() else 1.0
    lam_max = 4.0 * scale / float(wmin) + 1.0

    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            c1, c2 = s1 * b1, s2 * b2
            f = lambda l1: delta(l1, c2)  # noqa: E731
            f0 = f(0.0)
            if f0 is None:
                continue
            # Bracket a solution of f(λ1) = c1 by geometric expansion.
            lo, hi = 0.0, 0.0
            flo = fhi = f0
            step = max(1e-3, 0.01 * lam_max)
            found = False
            while step <= 4.0 * lam_max:
                lo_c, hi_c = -step, step
                flo_c, fhi_c = f(lo_c), f(hi_c)
                if flo_c is None or fhi_c is None:
                    break
                if (flo_c - c1) * (fhi_c - c1) <= 0:
                    lo, hi, flo, fhi = lo_c, hi_c, flo_c, fhi_c
                    found = True
                    break
                step *= 4.0
            if not found:
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm is None:
                    break
                if (flo - c1) * (fm - c1) <= 0:
                    hi, fhi = mid, fm
                else:
                    lo, flo = mid, fm
                if hi - lo < tol * (1.0 + abs(lo) + abs(hi)):
                    break
            x = x_at(0.5 * (lo + hi), c2)
            if x is not None and feasible(x):
                candidates.append(x)

    if not candidates:
        # Fall back to Dykstra — should not happen on valid inputs, but keep
        # the algorithm total.
        return dykstra(y, W, b, fixed, x_fixed)
    dists = [float(np.linalg.norm(c - y)) for c in candidates]
    return candidates[int(np.argmin(dists))]


def project_exact(
    y: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    fixed: np.ndarray | None = None,
    x_fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Exact projection dispatch: d=1 and d=2 per the paper; d>2 falls back to
    Dykstra (paper: exact d>2 is an open problem, §5)."""
    d = W.shape[1]
    if d == 1:
        return exact_d1(y, W[:, 0], float(b[0]), fixed, x_fixed)
    if d == 2:
        return exact_d2(y, W, b, fixed, x_fixed)
    return dykstra(y, W, b, fixed, x_fixed)
