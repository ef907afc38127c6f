"""Tests for randomized rounding + balance repair (§2.1)."""
import numpy as np
import pytest

from repro.core import rounding as R


def test_round_randomized_extremes_deterministic():
    x = np.array([-1.0, 1.0, -1.0, 1.0])
    rng = np.random.default_rng(0)
    assert np.allclose(R.round_randomized(x, rng), x)


def test_round_randomized_probability():
    rng = np.random.default_rng(1)
    x = np.full(20000, 0.5)  # Pr[+1] = 0.75
    s = R.round_randomized(x, rng)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    assert np.mean(s == 1.0) == pytest.approx(0.75, abs=0.02)


def test_round_randomized_preserves_expected_objective():
    """E[s_i] = x_i, so E[s_u s_v] = x_u x_v for u != v."""
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 6)
    samples = np.stack([R.round_randomized(x, rng) for _ in range(20000)])
    assert np.allclose(samples.mean(axis=0), x, atol=0.03)


@pytest.mark.parametrize("seed", range(6))
def test_repair_reaches_balance_unit_weights(seed):
    rng = np.random.default_rng(seed)
    n = 400
    x = rng.uniform(-1, 1, n)
    signs = R.round_randomized(x, rng)
    W = np.ones((n, 1))
    out = R.repair_balance(signs, x, W, eps=0.02)
    assert abs(np.dot(W[:, 0], out)) <= 0.02 * n + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_repair_two_dims_unit_and_degree(seed):
    rng = np.random.default_rng(100 + seed)
    n = 500
    x = rng.uniform(-1, 1, n)
    signs = R.round_randomized(x, rng)
    deg = rng.pareto(2.0, n) + 1.0
    W = np.column_stack([np.ones(n), deg])
    out = R.repair_balance(signs, x, W, eps=0.05)
    b = 0.05 * W.sum(axis=0)
    assert (np.abs(W.T @ out) <= b + 1e-9).all()


def test_repair_noop_when_balanced():
    n = 100
    x = np.zeros(n)
    signs = np.array([1.0, -1.0] * 50)
    W = np.ones((n, 1))
    out = R.repair_balance(signs, x, W, eps=0.01)
    assert np.array_equal(out, signs)


def test_repair_flips_least_integral_first():
    x = np.array([0.99, 0.99, 0.99, 0.01])
    signs = np.ones(4)
    W = np.ones((4, 1))
    out = R.repair_balance(signs, x, W, eps=0.6)  # need sum |.| <= 2.4 -> one flip
    assert out[3] == -1.0 and out[:3].sum() == 3.0


def test_repair_respects_max_flips():
    n = 50
    signs = np.ones(n)
    x = np.zeros(n)
    W = np.ones((n, 1))
    out = R.repair_balance(signs, x, W, eps=0.0, max_flips=3)
    assert (out == -1).sum() == 3


def _greedy_reference(signs, x, W, eps, max_flips=None):
    """The plain greedy repair: every flip rescans the whole |x| order for the
    first unused vertex on the heavy side with positive weight."""
    signs = signs.copy()
    n, d = W.shape
    b = eps * W.sum(axis=0)
    s = W.T @ signs
    order = np.argsort(np.abs(x), kind="stable")
    max_flips = 2 * n if max_flips is None else max_flips
    used = np.zeros(n, dtype=bool)
    flips = 0
    while flips < max_flips:
        viol = np.abs(s) - b
        j = int(np.argmax(viol / np.maximum(b, 1e-12)))
        if viol[j] <= 1e-9:
            break
        heavy = np.sign(s[j])
        flipped = False
        for i in order:
            if used[i] or signs[i] != heavy or W[i, j] <= 0:
                continue
            signs[i] = -heavy
            s -= 2.0 * heavy * W[i]
            used[i] = True
            flips += 1
            flipped = True
            break
        if not flipped:
            break
    return signs


def _repair_case(seed):
    """A random repair input; the seed picks d ∈ {1,2,3}, zero-weight rows,
    ties in |x| (all |x| = 1 in a quarter of the cases, as in the k-way
    recursion), ε ∈ {0, …, 0.2}, an already balanced start and a flip cap."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    d = 1 + seed % 3
    W = np.column_stack([np.ones(n)] + [rng.pareto(1.5, n) + 1.0 for _ in range(d - 1)])
    W[rng.random((n, d)) < 0.15] = 0.0
    if seed % 4 == 0:
        x = rng.choice([-1.0, 1.0], n)
    else:
        x = np.round(rng.uniform(-1, 1, n), 1)
    if seed % 5 == 0:
        signs = np.resize([1.0, -1.0], n)
    else:
        signs = np.where(rng.random(n) < rng.uniform(0.2, 0.8), 1.0, -1.0)
    eps = float(rng.choice([0.0, 0.01, 0.05, 0.1, 0.2]))
    max_flips = int(rng.integers(0, 8)) if seed % 6 == 1 else None
    return signs, x, W, eps, max_flips


@pytest.mark.parametrize("block", range(4))
def test_repair_matches_greedy_reference(block):
    """The queued repair flips exactly the vertices the rescanning greedy does."""
    for seed in range(150 * block, 150 * (block + 1)):
        signs, x, W, eps, max_flips = _repair_case(seed)
        want = _greedy_reference(signs, x, W, eps, max_flips)
        got = R.repair_balance(signs, x, W, eps, max_flips)
        assert np.array_equal(got, want), f"seed {seed}"
