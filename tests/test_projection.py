"""Property tests for the projection library (paper §2.2, §3.1, Appendix A).

Ground truth for the exact projections is long-run Dykstra, which is
guaranteed to converge to the true Euclidean projection onto the
intersection of convex sets.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import projection_np as P


def _rand_instance(rng, n, d, eps=0.1, w_zero_prob=0.0):
    y = rng.normal(0, 1.5, n)
    W = rng.uniform(0.2, 3.0, (n, d))
    if w_zero_prob:
        W[rng.random((n, d)) < w_zero_prob] = 0.0
    b = eps * W.sum(axis=0)
    return y, W, b


def _in_K(x, W, b, tol=1e-6):
    if np.abs(x).max() > 1 + tol:
        return False
    s = W.T @ x
    return bool((np.abs(s) <= b * (1 + tol) + tol).all())


# ---------------------------------------------------------------- primitives


def test_clip_box_basic():
    y = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.allclose(P.clip_box(y), [-1, -0.5, 0, 0.5, 1])


def test_clip_box_respects_fixed():
    y = np.array([2.0, 2.0])
    fixed = np.array([True, False])
    xf = np.array([-1.0, 0.0])
    assert np.allclose(P.clip_box(y, fixed, xf), [-1.0, 1.0])


def test_project_plane_lands_on_plane():
    rng = np.random.default_rng(0)
    y = rng.normal(0, 1, 20)
    w = rng.uniform(0.1, 2, 20)
    x = P.project_plane(y, w, 0.7)
    assert np.dot(w, x) == pytest.approx(0.7, abs=1e-9)


def test_project_plane_is_closest_on_plane():
    rng = np.random.default_rng(1)
    y = rng.normal(0, 1, 10)
    w = rng.uniform(0.1, 2, 10)
    x = P.project_plane(y, w, 0.0)
    # The displacement must be parallel to w (orthogonality condition).
    disp = y - x
    cross = disp - (np.dot(disp, w) / np.dot(w, w)) * w
    assert np.linalg.norm(cross) < 1e-9


def test_project_plane_fixed_coords_do_not_move():
    rng = np.random.default_rng(2)
    y = rng.normal(0, 1, 10)
    w = rng.uniform(0.1, 2, 10)
    fixed = np.zeros(10, bool)
    fixed[:3] = True
    x = P.project_plane(y, w, 0.0, fixed)
    assert np.allclose(x[:3], y[:3])
    assert np.dot(w, x) == pytest.approx(0.0, abs=1e-9)


def test_project_slab_noop_inside():
    y = np.zeros(5)
    w = np.ones(5)
    assert np.allclose(P.project_slab(y, w, 1.0), y)


def test_project_slab_moves_to_face():
    y = np.ones(4)
    w = np.ones(4)
    x = P.project_slab(y, w, 2.0)
    assert np.dot(w, x) == pytest.approx(2.0, abs=1e-9)


# ------------------------------------------------------- composite projections


def _one_shot_rounds(y, W, b):
    """The final projection as both GD engines run it: slab passes of
    ``final_slab_lambdas``, each followed by the box clip, until it stops."""
    x = P.clip_box(y)
    for rounds in range(P.FINAL_PROJECT_ITERS):
        lam = P.final_slab_lambdas(W.T @ x, W.T @ W, b)
        if lam is None:
            return x, rounds
        x = P.clip_box(x - W @ lam)
    return x, P.FINAL_PROJECT_ITERS


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_shot_plane_satisfies_planes_before_clip(d):
    """The one-shot plane pass hits the last plane exactly; the clip then
    puts x in the box."""
    rng = np.random.default_rng(3)
    y, W, b = _rand_instance(rng, 40, d)
    lam = P.sequential_lambdas(W.T @ y, W.T @ W, b, target="plane")
    before_clip = y - W @ lam
    assert abs(float(W[:, d - 1] @ before_clip)) < 1e-9
    x = P.clip_box(before_clip)
    assert np.abs(x).max() <= 1 + 1e-9


@pytest.mark.parametrize("d", [1, 2])
def test_final_slab_rounds_converge_into_K(d):
    rng = np.random.default_rng(4)
    y, W, b = _rand_instance(rng, 50, d, eps=0.05)
    x, rounds = _one_shot_rounds(y, W, b)
    assert rounds < P.FINAL_PROJECT_ITERS
    assert _in_K(x, W, b, tol=1e-5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dykstra_in_K(d):
    rng = np.random.default_rng(5)
    y, W, b = _rand_instance(rng, 40, d, eps=0.05)
    x = P.dykstra(y, W, b)
    assert _in_K(x, W, b, tol=1e-5)


def test_dykstra_matches_analytic_single_constraint():
    """With a huge box, projection onto one slab has a closed form."""
    rng = np.random.default_rng(6)
    y = rng.normal(0, 0.1, 20)  # well inside the box
    W = rng.uniform(0.5, 1.0, (20, 1))
    b = np.array([0.01])
    want = P.project_slab(y, W[:, 0], b[0])
    got = P.dykstra(y, W, b)
    assert np.allclose(got, want, atol=1e-6)


# ------------------------------------------------------------ exact, d = 1


@pytest.mark.parametrize("seed", range(8))
def test_exact_d1_matches_dykstra(seed):
    rng = np.random.default_rng(seed)
    y, W, b = _rand_instance(rng, 60, 1, eps=0.05)
    x_exact = P.exact_d1(y, W[:, 0], b[0])
    x_true = P.dykstra(y, W, b, tol=1e-12, max_iter=20000)
    assert _in_K(x_exact, W, b)
    assert np.linalg.norm(x_exact - y) <= np.linalg.norm(x_true - y) + 1e-6
    assert np.allclose(x_exact, x_true, atol=1e-4)


def test_exact_d1_noop_when_feasible():
    y = np.zeros(10)
    w = np.ones(10)
    assert np.allclose(P.exact_d1(y, w, 1.0), y)


def test_exact_d1_handles_zero_weights():
    rng = np.random.default_rng(7)
    y = rng.normal(0, 2, 30)
    w = rng.uniform(0, 2, 30)
    w[:10] = 0.0
    x = P.exact_d1(y, w, 0.1 * w.sum())
    assert abs(np.dot(w, x)) <= 0.1 * w.sum() + 1e-6
    # Zero-weight coords are simply clipped.
    assert np.allclose(x[:10], np.clip(y[:10], -1, 1))


def test_exact_d1_idempotent():
    rng = np.random.default_rng(8)
    y, W, b = _rand_instance(rng, 40, 1, eps=0.05)
    x1 = P.exact_d1(y, W[:, 0], b[0])
    x2 = P.exact_d1(x1, W[:, 0], b[0])
    assert np.allclose(x1, x2, atol=1e-7)


def test_exact_d1_respects_fixed():
    rng = np.random.default_rng(9)
    y, W, b = _rand_instance(rng, 30, 1, eps=0.02)
    fixed = np.zeros(30, bool)
    fixed[:5] = True
    xf = np.sign(rng.normal(size=30))
    x = P.exact_d1(y, W[:, 0], b[0], fixed, xf)
    assert np.allclose(x[:5], xf[:5])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 80), st.floats(0.01, 0.5))
def test_exact_d1_hypothesis_vs_dykstra(seed, n, eps):
    rng = np.random.default_rng(seed)
    y, W, b = _rand_instance(rng, n, 1, eps=eps)
    x_exact = P.exact_d1(y, W[:, 0], b[0])
    x_true = P.dykstra(y, W, b, tol=1e-12, max_iter=20000)
    assert _in_K(x_exact, W, b)
    assert np.linalg.norm(x_exact - y) <= np.linalg.norm(x_true - y) + 1e-5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_d1_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    n = 30
    ya, W, b = _rand_instance(rng, n, 1, eps=0.05)
    yb = ya + rng.normal(0, 0.5, n)
    xa = P.exact_d1(ya, W[:, 0], b[0])
    xb = P.exact_d1(yb, W[:, 0], b[0])
    assert np.linalg.norm(xa - xb) <= np.linalg.norm(ya - yb) + 1e-6


# ------------------------------------------------------------ exact, d = 2


@pytest.mark.parametrize("seed", range(10))
def test_exact_d2_matches_dykstra(seed):
    rng = np.random.default_rng(100 + seed)
    y, W, b = _rand_instance(rng, 50, 2, eps=0.05)
    x_exact = P.exact_d2(y, W, b)
    x_true = P.dykstra(y, W, b, tol=1e-12, max_iter=30000)
    assert _in_K(x_exact, W, b)
    assert np.linalg.norm(x_exact - y) <= np.linalg.norm(x_true - y) + 1e-4


def test_exact_d2_noop_when_feasible():
    y = np.zeros(10)
    W = np.ones((10, 2))
    b = np.array([5.0, 5.0])
    assert np.allclose(P.exact_d2(y, W, b), y)


def test_exact_d2_idempotent():
    rng = np.random.default_rng(11)
    y, W, b = _rand_instance(rng, 40, 2, eps=0.05)
    x1 = P.exact_d2(y, W, b)
    x2 = P.exact_d2(x1, W, b)
    assert np.linalg.norm(x1 - x2) < 1e-5


def test_exact_d2_correlated_weights():
    """w2 = degree-like correlated with w1 — the realistic GD case."""
    rng = np.random.default_rng(12)
    n = 60
    w1 = np.ones(n)
    w2 = rng.pareto(2.0, n) + 1.0
    W = np.column_stack([w1, w2])
    y = rng.normal(0, 2, n)
    b = 0.03 * W.sum(axis=0)
    x = P.exact_d2(y, W, b)
    x_true = P.dykstra(y, W, b, tol=1e-12, max_iter=30000)
    assert _in_K(x, W, b)
    assert np.linalg.norm(x - y) <= np.linalg.norm(x_true - y) + 1e-4


def test_exact_d2_respects_fixed():
    rng = np.random.default_rng(13)
    y, W, b = _rand_instance(rng, 30, 2, eps=0.05)
    fixed = np.zeros(30, bool)
    fixed[:4] = True
    xf = np.sign(rng.normal(size=30))
    x = P.exact_d2(y, W, b, fixed, xf)
    assert np.allclose(x[:4], xf[:4])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(6, 40), st.floats(0.02, 0.4))
def test_exact_d2_hypothesis_vs_dykstra(seed, n, eps):
    rng = np.random.default_rng(seed)
    y, W, b = _rand_instance(rng, n, 2, eps=eps)
    x_exact = P.exact_d2(y, W, b)
    x_true = P.dykstra(y, W, b, tol=1e-12, max_iter=20000)
    assert _in_K(x_exact, W, b)
    assert np.linalg.norm(x_exact - y) <= np.linalg.norm(x_true - y) + 2e-4


@pytest.mark.parametrize("d", [1, 2])
def test_project_exact_every_coordinate_fixed_on_the_face(d):
    """No free coordinate and the fixed sum exactly on a slab face: the
    equality solve has no breakpoint, and the answer is ``x_fixed``."""
    n = 40
    W = np.ones((n, d))
    b = 0.05 * W.sum(axis=0)
    fixed = np.ones(n, bool)
    x_fixed = np.concatenate([np.ones(21), -np.ones(19)])
    x = P.project_exact(np.zeros(n), W, b, fixed, x_fixed)
    assert np.array_equal(x, x_fixed)


def test_exact_rejects_negative_weights():
    y = np.zeros(3)
    with pytest.raises(ValueError, match="nonnegative"):
        P.exact_d1(y, np.array([1.0, -1.0, 1.0]), 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        P.exact_d2(y, np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]), np.array([0.5, 0.5]))


def test_project_exact_dispatch():
    rng = np.random.default_rng(14)
    y, W1, b1 = _rand_instance(rng, 20, 1, eps=0.05)
    assert np.allclose(P.project_exact(y, W1, b1), P.exact_d1(y, W1[:, 0], b1[0]))
    y2, W2, b2 = _rand_instance(rng, 20, 2, eps=0.05)
    assert np.allclose(P.project_exact(y2, W2, b2), P.exact_d2(y2, W2, b2))
    y3, W3, b3 = _rand_instance(rng, 20, 3, eps=0.05)
    assert _in_K(P.project_exact(y3, W3, b3), W3, b3, tol=1e-4)


# ----------------------------------------------------- cross-method agreement


@pytest.mark.parametrize("seed", range(5))
def test_dykstra_at_least_as_close_as_any_point_of_K(seed):
    """Dykstra finds the projection: no other point z of K is closer to y,
    and ⟨y − x, z − x⟩ ≤ 0 (the variational inequality of a projection)."""
    rng = np.random.default_rng(200 + seed)
    y, W, b = _rand_instance(rng, 40, 2, eps=0.05)
    xd = P.dykstra(y, W, b, tol=1e-12, max_iter=30000)
    others = [_one_shot_rounds(y, W, b)[0]]
    others += [P.dykstra(rng.normal(0, 1.5, 40), W, b, tol=1e-12, max_iter=30000) for _ in range(4)]
    for z in others:
        assert _in_K(z, W, b, tol=1e-5)
        assert np.linalg.norm(xd - y) <= np.linalg.norm(z - y) + 1e-6
        assert float((y - xd) @ (z - xd)) <= 1e-5


def test_paper_observation_dykstra_close_to_exact():
    """§3.1: 'Dykstra's algorithm and exact projection give similar results'."""
    rng = np.random.default_rng(300)
    y, W, b = _rand_instance(rng, 80, 2, eps=0.04)
    xd = P.dykstra(y, W, b, tol=1e-12, max_iter=30000)
    xe = P.exact_d2(y, W, b)
    assert np.linalg.norm(xd - xe) < 1e-3 * np.sqrt(80)


@pytest.mark.parametrize("b2", [20.0, 2.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exact_d2_face_out_of_reach_returns_best_effort(sign, b2):
    """Fixed coordinates put slab 1 out of reach (K is empty): the search
    returns, fixed coordinates keep ``x_fixed``, and every free coordinate
    with w_1 > 0 sits at the face's far side while slab 2 holds."""
    rng = np.random.default_rng(15)
    n = 20
    w1 = np.concatenate([np.ones(6), np.full(10, 0.1), np.zeros(4)])
    W = np.column_stack([w1, np.ones(n)])
    b = np.array([1.0, b2])
    fixed = np.arange(n) < 6
    x_fixed = np.where(fixed, sign, 0.0)
    y = rng.normal(0, 1.5, n)
    x = P.exact_d2(y, W, b, fixed, x_fixed)
    assert np.array_equal(x[fixed], x_fixed[fixed])
    assert np.array_equal(x[~fixed & (w1 > 0)], np.full(10, -sign))
    assert abs(float(W[:, 1] @ x)) <= b2 + 1e-9
    assert np.abs(x).max() <= 1.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exact_d2_face_out_of_reach_keeps_slab_2(sign):
    """Slab 1 out of reach where slab 2 binds: the best effort is the point
    of ``B_inf ∩ S^2`` that minimises sign·⟨w_1, x⟩ (the limit of x(λ)),
    not one that the rounding of a huge ``y − λ·w_1`` puts outside slab 2."""
    W = np.array([[3.0, 1.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    b = np.array([0.5, 1.0])
    fixed = np.array([True, False, False, False])
    y = sign * np.array([0.0, 0.9, 0.9, 0.9])
    x = P.exact_d2(y, W, b, fixed, np.where(fixed, sign, 0.0))
    assert np.allclose(x, sign * np.array([1.0, -1.0, -1.0, 1.0 / 3.0]), atol=1e-9)
