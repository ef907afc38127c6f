"""Tests for ``sequential_lambdas``, the one copy of the one-shot projection
math behind both GD engines' steps and final projections.

Its multipliers must reproduce *exactly* the sequential plane/slab
projections on the vector: both engines apply them as
``x_free ← clip(y_free − W_free·λ)``, so the Spark and local GD trajectories
coincide (verified end-to-end in test_spark_gd).
"""
import numpy as np
import pytest

from repro.core import projection_np as P
from repro.core.projection_np import sequential_lambdas


def _apply(y, W, lam, free):
    x = y.copy()
    x[free] = y[free] - (W[free] @ lam)
    return x


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_matches_sequential_plane_projection(d, seed):
    rng = np.random.default_rng(seed)
    n = 40
    y = rng.normal(0, 1.5, n)
    W = rng.uniform(0.1, 2.0, (n, d))
    b = 0.05 * W.sum(axis=0)
    free = np.ones(n, bool)

    s = W.T @ y
    D = W.T @ W
    lam = sequential_lambdas(s, D, b, target="plane")
    got = _apply(y, W, lam, free)

    want = y.copy()
    for j in range(d):
        want = P.project_plane(want, W[:, j], 0.0)
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_matches_sequential_slab_projection(seed):
    rng = np.random.default_rng(100 + seed)
    n = 30
    d = 2
    y = rng.normal(0, 2.0, n)
    W = rng.uniform(0.1, 2.0, (n, d))
    b = 0.05 * W.sum(axis=0)

    s = W.T @ y
    D = W.T @ W
    lam = sequential_lambdas(s, D, b, target="slab")
    got = _apply(y, W, lam, np.ones(n, bool))

    want = y.copy()
    for j in range(d):
        want = P.project_slab(want, W[:, j], float(b[j]))
    assert np.allclose(got, want, atol=1e-10)


def test_plane_targets_reached_in_order():
    """After the sequential pass the LAST dimension's plane is hit exactly."""
    rng = np.random.default_rng(7)
    n, d = 25, 3
    y = rng.normal(0, 1, n)
    W = rng.uniform(0.1, 1.0, (n, d))
    b = np.full(d, 0.01)
    lam = sequential_lambdas(W.T @ y, W.T @ W, b, target="plane")
    x = _apply(y, W, lam, np.ones(n, bool))
    assert abs(np.dot(W[:, d - 1], x)) < 1e-9


def test_fixed_coordinates_via_free_gram():
    """With fixed coords, D is the free-coordinate Gram matrix but s spans
    all coordinates; the result matches the masked numpy projection."""
    rng = np.random.default_rng(8)
    n = 20
    y = rng.normal(0, 1, n)
    w = rng.uniform(0.5, 1.5, n)
    fixed = np.zeros(n, bool)
    fixed[:6] = True
    free = ~fixed
    s = np.array([np.dot(w, y)])
    D = np.array([[np.dot(w[free], w[free])]])
    lam = sequential_lambdas(s, D, np.array([0.0]), target="plane")
    got = y.copy()
    got[free] = y[free] - lam[0] * w[free]
    want = P.project_plane(y, w, 0.0, fixed)
    assert np.allclose(got, want, atol=1e-10)


def test_zero_gram_is_noop():
    lam = sequential_lambdas(np.array([3.0]), np.array([[0.0]]), np.array([1.0]))
    assert lam[0] == 0.0


def test_slab_noop_when_inside():
    rng = np.random.default_rng(9)
    n = 10
    y = rng.normal(0, 0.01, n)
    W = np.ones((n, 1))
    b = np.array([5.0])
    lam = sequential_lambdas(W.T @ y, W.T @ W, b, target="slab")
    assert lam[0] == pytest.approx(0.0, abs=1e-12)


def _sequential_then_clip(y, W, b, fixed, x_fixed, target):
    """Reference one-shot pass: the d primitive projections, then the box."""
    x = y.copy()
    for j in range(W.shape[1]):
        if target == "plane":
            x = P.project_plane(x, W[:, j], 0.0, fixed)
        else:
            x = P.project_slab(x, W[:, j], float(b[j]), fixed)
    return P.clip_box(x, fixed, x_fixed)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("target", ["plane", "slab"])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_one_shot_matches_sequential_projections_then_clip(d, target, masked, seed):
    rng = np.random.default_rng(200 + seed)
    n = 40
    y = rng.normal(0.3, 1.5, n)  # off-centre, so the slab faces are active too
    W = rng.uniform(0.1, 2.0, (n, d))
    W[rng.random((n, d)) < 0.1] = 0.0
    b = 0.05 * W.sum(axis=0)
    fixed = x_fixed = None
    if masked:
        fixed = rng.random(n) < 0.3
        x_fixed = np.where(rng.random(n) < 0.5, -1.0, 1.0)

    free = np.ones(n, bool) if fixed is None else ~fixed
    W_free = W[free]
    lam = sequential_lambdas(W.T @ y, W_free.T @ W_free, b, target)
    got = P.clip_box(_apply(y, W, lam, free), fixed, x_fixed)
    want = _sequential_then_clip(y, W, b, fixed, x_fixed, target)
    assert np.allclose(got, want, atol=1e-10)
    if masked:
        assert np.array_equal(got[fixed], x_fixed[fixed])


def test_final_slab_lambdas_stops_when_feasible():
    D = np.eye(2)
    b = np.array([1.0, 2.0])
    assert P.final_slab_lambdas(np.array([1.0, -2.0]), D, b) is None
    # Within the relative tolerance 1e-9·(1+|b|) of the faces.
    assert P.final_slab_lambdas(np.array([1.0 + 1e-9, 0.0]), D, b) is None


def test_final_slab_lambdas_stops_when_lambda_negligible():
    # Outside the slab, but no free coordinate can move.
    assert P.final_slab_lambdas(np.array([5.0]), np.zeros((1, 1)), np.array([1.0])) is None
    # Outside the slab by less than 1e-7 after scaling by a large Gram.
    assert P.final_slab_lambdas(np.array([1.1]), np.array([[1e7]]), np.array([1.0])) is None


def test_final_slab_lambdas_is_the_slab_solve_otherwise():
    rng = np.random.default_rng(11)
    W = rng.uniform(0.1, 2.0, (30, 2))
    y = rng.normal(1.0, 1.0, 30)
    b = 0.05 * W.sum(axis=0)
    s, D = W.T @ y, W.T @ W
    lam = P.final_slab_lambdas(s, D, b)
    assert lam is not None
    assert np.array_equal(lam, sequential_lambdas(s, D, b, target="slab"))
