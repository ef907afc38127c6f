"""Independent check of a partitioner output, recomputed in numpy.

The check never calls the partitioner's own code or its Spark metrics: weights
are rebuilt from the generated pandas edge list (d=2: ``unit`` and ``degree``,
the §4.2 vertex-edge mode), so a defect in ``repro`` cannot hide itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

# Relative slack on ε for float summation order only; an assignment at
# 1.00000001·ε still passes, one at 1.01·ε does not.
EPS_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one ``[id, part]`` assignment.

    ``eps_achieved`` and ``locality`` are ``nan`` when the assignment is not
    total or has part ids out of range, since neither is defined then.
    """

    total: bool
    in_range: bool
    eps_achieved: float
    locality: float
    eps: float

    @property
    def balanced(self) -> bool:
        return bool(self.eps_achieved <= self.eps * (1.0 + EPS_RTOL))

    @property
    def ok(self) -> bool:
        return self.total and self.in_range and self.balanced

    def reason(self) -> str:
        if not self.total:
            return "assignment is not total (a vertex is missing or repeated)"
        if not self.in_range:
            return "a part id lies outside [0, k)"
        if not self.balanced:
            return f"eps_achieved {self.eps_achieved:.6f} exceeds requested eps {self.eps}"
        return "ok"


def weights(edges: pd.DataFrame, n: int) -> np.ndarray:
    """``(n, 2)`` weight matrix: column 0 is ``unit``, column 1 ``degree``."""
    src = edges["src"].to_numpy()
    dst = edges["dst"].to_numpy()
    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    return np.column_stack([np.ones(n), deg.astype(float)])


def eps_achieved(parts: np.ndarray, W: np.ndarray, k: int) -> float:
    """Smallest ε for which ``parts`` satisfies Definition 2.1:
    ``max_{i,j} |w_j(V_i) − w_j(V)/k| / (w_j(V)/k)``, empty parts included."""
    worst = 0.0
    for j in range(W.shape[1]):
        loads = np.bincount(parts, weights=W[:, j], minlength=k)
        target = W[:, j].sum() / k
        worst = max(worst, float(np.abs(loads - target).max() / target))
    return worst


def check_assignment(
    edges: pd.DataFrame, n: int, k: int, eps: float, ids: np.ndarray, parts: np.ndarray
) -> Verdict:
    """Check an assignment given as parallel arrays ``ids`` and ``parts``
    against the canonical edge list over vertex ids ``0..n-1``."""
    ids = np.asarray(ids, dtype=np.int64)
    parts = np.asarray(parts, dtype=np.int64)
    total = ids.size == n and np.array_equal(np.sort(ids), np.arange(n))
    in_range = bool(parts.size == 0 or (parts.min() >= 0 and parts.max() < k))
    if not (total and in_range):
        return Verdict(total, in_range, float("nan"), float("nan"), eps)
    by_id = np.empty(n, dtype=np.int64)
    by_id[ids] = parts
    src = edges["src"].to_numpy()
    dst = edges["dst"].to_numpy()
    locality = float(np.mean(by_id[src] == by_id[dst]))
    return Verdict(True, True, eps_achieved(by_id, weights(edges, n), k), locality, eps)
