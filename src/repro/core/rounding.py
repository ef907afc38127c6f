"""Randomized rounding of the fractional GD solution (§2.1) + balance repair.

Rounding is per-vertex: ``Pr[i ∈ V₁] = (x_i + 1)/2``, which preserves the
expected objective and, for large n, the balance constraints w.h.p. At the
small graph sizes of this reproduction the binomial deviation can exceed
``ε·Σw``, so ``repair_balance`` greedily flips the *least integral* vertices
(smallest |x| — the vertices the relaxation was least certain about) from the
overloaded side until every dimension is within the slab. This is a driver-
side post-pass costing O(n log n + n·d + flips·d) (DESIGN.md §3).
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def round_randomized(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Round fractional x ∈ [-1,1]^n to signs in {-1,+1}^n."""
    return np.where(rng.random(x.size) < (x + 1.0) * 0.5, 1.0, -1.0)


def repair_balance(
    signs: np.ndarray,
    x: np.ndarray,
    W: np.ndarray,
    eps: float,
    max_flips: int | None = None,
) -> np.ndarray:
    """Greedily flip low-|x| vertices until ``|⟨w_j, signs⟩| ≤ ε·Σw_j`` ∀j.

    Each flip moves a vertex from the currently worst-violating dimension's
    heavy side; vertices are consumed in increasing |x| order (stable, so
    ties go by id) and each at most once. Terminates after at most
    ``max_flips`` (default 2n) flips even if some dimension remains violated
    (returns best effort).

    A vertex keeps its sign until it is flipped, and a flipped vertex is
    never a candidate again. So the candidates of one (dimension, heavy side)
    pair form a fixed queue in |x| order, built the first time the pair is
    chosen; taking from it skips the vertices another queue has used. Each
    queue is scanned once, which makes the cost O(n log n + n·d + flips·d).
    """
    signs = signs.copy()
    n, d = W.shape
    b = eps * W.sum(axis=0)
    s = W.T @ signs
    order = np.argsort(np.abs(x), kind="stable")
    max_flips = 2 * n if max_flips is None else max_flips
    used = np.zeros(n, dtype=bool)
    queues: dict[tuple[int, float], Iterator[int]] = {}
    flips = 0
    while flips < max_flips:
        viol = np.abs(s) - b
        j = int(np.argmax(viol / np.maximum(b, 1e-12)))
        if viol[j] <= 1e-9:
            break
        heavy = np.sign(s[j])
        key = (j, heavy)
        if key not in queues:
            queues[key] = iter(order[(signs[order] == heavy) & ~used[order] & (W[order, j] > 0)].tolist())
        i = next((i for i in queues[key] if not used[i]), None)
        if i is None:
            break  # no candidate left on the heavy side
        signs[i] = -heavy
        s -= 2.0 * heavy * W[i]
        used[i] = True
        flips += 1
    return signs


def round_to_halves(x: np.ndarray, W: np.ndarray, eps: float, seed: int) -> np.ndarray:
    """Parts in {0, 1} of fractional ``x`` (part 1 ⇔ rounded to +1): the
    randomized rounding drawn from ``default_rng(seed + 1)``, then
    ``repair_balance``. Both GD engines finish a bisection with it."""
    signs = round_randomized(x, np.random.default_rng(seed + 1))
    signs = repair_balance(signs, x, W, eps)
    return ((signs + 1) // 2).astype(np.int64)
