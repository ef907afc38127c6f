"""Tests for the numpy reference implementation of Algorithm 1."""
import numpy as np
import pandas as pd
import pytest

from repro.core import projection_np as P
from repro.core.local_gd import fractional_locality, gd_bipartition_local, gd_relax_local
from repro.core.params import GDParams
from repro.graphs import generators as gen


def _weights(edges: pd.DataFrame, n: int, dims=("unit", "degree")) -> np.ndarray:
    deg = np.bincount(
        np.concatenate([edges.src.to_numpy(), edges.dst.to_numpy()]), minlength=n
    ).astype(float)
    cols = {"unit": np.ones(n), "degree": deg, "sqrt_degree": np.sqrt(deg), "degree_sq": deg**2}
    return np.column_stack([cols[d] for d in dims])


@pytest.fixture(scope="module")
def community_graph():
    """Two planted communities (levels=1), strong structure."""
    spec = gen.GraphSpec(n=400, avg_degree=12, levels=1, mu_cross=0.08, seed=42)
    edges = gen.generate_edges(spec)
    return edges, _weights(edges, spec.n)


def test_fractional_locality_bounds(community_graph):
    edges, _ = community_graph
    n = 400
    assert fractional_locality(edges, np.ones(n)) == 1.0
    assert fractional_locality(edges, np.zeros(n)) == 0.5


def test_gd_relax_stays_in_box(community_graph):
    edges, W = community_graph
    x, _ = gd_relax_local(edges, W, GDParams(n_iter=15, seed=0))
    assert np.abs(x).max() <= 1 + 1e-9


def test_gd_relax_respects_balance_after_final_projection(community_graph):
    edges, W = community_graph
    p = GDParams(n_iter=20, eps=0.05, seed=0)
    x, _ = gd_relax_local(edges, W, p)
    b = p.eps * W.sum(axis=0)
    assert (np.abs(W.T @ x) <= b * 1.001 + 1e-6).all()


def test_gd_improves_over_random(community_graph):
    edges, W = community_graph
    x, _ = gd_relax_local(edges, W, GDParams(n_iter=25, seed=0))
    assert fractional_locality(edges, x) > 0.65  # random split gives 0.5


def test_gd_finds_planted_communities(community_graph):
    edges, W = community_graph
    parts, _ = gd_bipartition_local(edges, W, GDParams(n_iter=60, seed=0))
    s = edges.src.to_numpy()
    d = edges.dst.to_numpy()
    loc = float(np.mean(parts[s] == parts[d]))
    assert loc > 0.8  # planted structure has ~92% internal edges


def test_gd_bipartition_balanced(community_graph):
    edges, W = community_graph
    p = GDParams(n_iter=25, eps=0.05, seed=0)
    parts, _ = gd_bipartition_local(edges, W, p)
    signs = 2.0 * parts - 1.0
    b = p.eps * W.sum(axis=0)
    assert (np.abs(W.T @ signs) <= b + 1e-9).all()
    assert set(np.unique(parts)) == {0, 1}


def test_gd_deterministic_in_seed(community_graph):
    edges, W = community_graph
    p = GDParams(n_iter=10, seed=7)
    a, _ = gd_relax_local(edges, W, p)
    b_, _ = gd_relax_local(edges, W, p)
    assert np.array_equal(a, b_)


def test_gd_history_recorded(community_graph):
    edges, W = community_graph
    p = GDParams(n_iter=12, seed=0)
    _, trace = gd_relax_local(edges, W, p)
    assert len(trace) == 12
    locality = [0.5 + m.xax / (4 * len(edges)) for m in trace]
    assert locality[-1] > locality[0] - 0.05  # non-degrading trend


def _fixed_point_graph():
    spec = gen.GraphSpec(n=100, avg_degree=8, levels=1, mu_cross=0.1, seed=3)
    edges = gen.generate_edges(spec)
    return spec, edges, _weights(edges, spec.n)


def test_gd_stops_at_a_fixed_point(monkeypatch):
    """A step of length 0 that fixes no vertex leaves x, the fixed set and γ
    as they were. Before fixing starts the loop jumps to its start; once it
    has started the loop stops there although a vertex is still free. Fewer
    exact projections run, the returned x is the last one's output, and the
    trace repeats the zero step for every step skipped."""
    spec, edges, W = _fixed_point_graph()
    p = GDParams(n_iter=30, projection="exact", seed=3, final_project=False)
    outputs = []

    def recording(*args):
        outputs.append(original(*args))
        return outputs[-1]

    original = P.project_exact
    monkeypatch.setattr(P, "project_exact", recording)
    x, trace = gd_relax_local(edges, W, p)
    step_len = [m.step for m in trace]
    n_fixed = [spec.n - m.n_free for m in trace]
    t1 = next(t for t in range(1, p.fix_start) if step_len[t] == 0.0)
    t0 = next(t for t in range(p.fix_start, p.n_iter)
              if step_len[t] == 0.0 and n_fixed[t] == n_fixed[t - 1])
    assert n_fixed[t0] < spec.n
    assert len(outputs) == (t1 + 1) + (t0 + 1 - p.fix_start) < p.n_iter
    assert np.array_equal(x, outputs[-1])
    assert step_len[t1:p.fix_start] == [0.0] * (p.fix_start - t1)
    assert n_fixed[t1:p.fix_start] == [0] * (p.fix_start - t1)
    assert step_len[t0:] == [0.0] * (p.n_iter - t0)
    assert n_fixed[t0:] == [n_fixed[t0]] * (p.n_iter - t0)


@pytest.mark.parametrize(
    "kw, steps",
    [
        # every vertex is fixed by the first step
        (dict(fix_start_frac=0.0, fix_threshold=0.0), 1),
        # a fixed point with fixing off: the loop stops at the first zero step
        (dict(projection="exact", fixing=False), 15),
        # the jump from the first zero step to fixing's start, then a fixed point
        (dict(projection="exact"), 17),
    ],
    ids=["all-fixed", "fixed-point", "jump"],
)
def test_trace_matches_the_iterate_after_an_early_stop(monkeypatch, kw, steps):
    """The trace has n_iter entries whichever rule stops the loop, and its last
    entry gives x's fractional locality and imbalance."""
    _, edges, W = _fixed_point_graph()
    p = GDParams(n_iter=30, seed=3, final_project=False, **kw)
    calls = []

    def counting(*args):
        calls.append(1)
        return original(*args)

    original = P.sequential_lambdas
    monkeypatch.setattr(P, "sequential_lambdas", counting)
    x, trace = gd_relax_local(edges, W, p)
    assert len(calls) == steps
    assert len(trace) == p.n_iter
    total = W.sum(axis=0)
    assert 0.5 + trace[-1].xax / (4 * len(edges)) == pytest.approx(
        fractional_locality(edges, x), abs=1e-12)
    assert np.max(np.abs(trace[-1].a) / total) == pytest.approx(
        np.max(np.abs(W.T @ x) / total), abs=1e-12)


def test_noise_escapes_saddle(community_graph):
    """Without noise, x=0 is a stationary point of the projected dynamics
    (plane projection of A·0 is 0); with noise GD makes progress."""
    edges, W = community_graph
    p = GDParams(n_iter=10, seed=0, final_project=False)
    x_no, _ = gd_relax_local(edges, W, p, x0=np.zeros(len(W)))
    assert np.abs(x_no).max() < 1e-9
    x_yes, _ = gd_relax_local(edges, W, p)
    assert np.abs(x_yes).max() > 0.1


def test_fixing_produces_integral_coords(community_graph):
    edges, W = community_graph
    p = GDParams(n_iter=30, fixing=True, seed=0)
    x, _ = gd_relax_local(edges, W, p)
    frac_integral = np.mean(np.abs(np.abs(x) - 1.0) < 1e-6)
    assert frac_integral > 0.3


def test_fixing_improves_or_matches_quality(community_graph):
    """§3.2/Fig 9: vertex fixing should not hurt the *rounded* partition."""
    edges, W = community_graph
    s, d = edges.src.to_numpy(), edges.dst.to_numpy()

    def rounded_loc(fixing: bool) -> float:
        p = GDParams(n_iter=60, fixing=fixing, seed=0)
        parts, _ = gd_bipartition_local(edges, W, p)
        return float(np.mean(parts[s] == parts[d]))

    assert rounded_loc(True) >= rounded_loc(False) - 0.06


@pytest.mark.parametrize("method", ["one_shot", "exact"])
def test_all_projection_methods_run(method, community_graph):
    edges, W = community_graph
    p = GDParams(n_iter=6, projection=method, seed=0)
    x, _ = gd_relax_local(edges, W, p)
    assert np.isfinite(x).all()
    assert np.abs(x).max() <= 1 + 1e-9


def test_exact_projection_quality_close_to_one_shot(community_graph):
    """Fig 10: one-shot alternating ≈ exact projection in final quality."""
    edges, W = community_graph
    q = {}
    for method in ("one_shot", "exact"):
        p = GDParams(n_iter=15, projection=method, seed=0)
        x, _ = gd_relax_local(edges, W, p)
        q[method] = fractional_locality(edges, x)
    assert abs(q["one_shot"] - q["exact"]) < 0.15


def test_d1_only_balance():
    spec = gen.GraphSpec(n=300, avg_degree=10, levels=1, mu_cross=0.1, seed=5)
    edges = gen.generate_edges(spec)
    W = _weights(edges, spec.n, dims=("unit",))
    p = GDParams(n_iter=20, eps=0.03, seed=1)
    parts, _ = gd_bipartition_local(edges, W, p)
    assert abs((2.0 * parts - 1.0).sum()) <= 0.03 * spec.n + 1e-9


def test_d4_dimensions_run():
    """§4.1: artificial 4-dim balance (1, deg, √deg, deg²)."""
    spec = gen.GraphSpec(n=300, avg_degree=10, levels=1, mu_cross=0.1, seed=6)
    edges = gen.generate_edges(spec)
    W = _weights(edges, spec.n, dims=("unit", "degree", "sqrt_degree", "degree_sq"))
    p = GDParams(n_iter=20, eps=0.05, seed=2)
    parts, _ = gd_bipartition_local(edges, W, p)
    signs = 2.0 * parts - 1.0
    b = p.eps * W.sum(axis=0)
    assert (np.abs(W.T @ signs) <= b + 1e-9).all()


@pytest.mark.parametrize("method", ["magic", "alternating", "dykstra"])
def test_invalid_projection_param(method):
    """GD projects one-shot or exactly (§3.1, Fig 10); the error names both."""
    with pytest.raises(ValueError, match="'one_shot' or 'exact'"):
        GDParams(projection=method)


@pytest.mark.parametrize(
    "kw",
    [dict(n_iter=0), dict(n_iter=-3), dict(eps=-0.05), dict(eps=float("nan"))],
    ids=["n_iter=0", "n_iter<0", "eps<0", "eps=nan"],
)
def test_invalid_params_raise(kw):
    """No iteration budget (σ = 1/n_iter) and a negative tolerance (an empty
    slab) are rejected when the parameters are made, not deep in a run."""
    with pytest.raises(ValueError, match=next(iter(kw))):
        GDParams(**kw)
