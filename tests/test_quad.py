"""Panel Gauss-Legendre and Gauss-Kronrod quadrature: exactness, additivity, the gate."""

import math

import numpy as np
import pytest

from zetalab import PrecisionError
from zetalab.quad import (
    _GK_X,
    _gl,
    _nodes,
    check_error,
    critical_panel_width,
    gauss_panels,
    integrate_panels,
    kronrod_sums,
    panel_edges,
    panel_sums,
    sigma_panel_runs,
)


def test_polynomial_exactness():
    # GL8 on halved panels integrates degree-15 polynomials exactly
    val, err = integrate_panels(lambda x: x ** 9, 0.0, 2.0, width=0.5, order=8)
    assert val == pytest.approx(2.0 ** 10 / 10.0, rel=1e-14)
    assert err <= 1e-12


def test_oscillatory_accuracy():
    val, err = integrate_panels(np.sin, 0.0, 20.0, width=0.25, order=8)
    assert val == pytest.approx(1.0 - math.cos(20.0), abs=1e-12)


def test_additivity():
    f = lambda x: np.cos(3.0 * x) ** 2
    v1, _ = integrate_panels(f, 0.0, 7.0, width=0.1, order=8)
    v2a, _ = integrate_panels(f, 0.0, 3.0, width=0.1, order=8)
    v2b, _ = integrate_panels(f, 3.0, 7.0, width=0.1, order=8)
    assert v1 == pytest.approx(v2a + v2b, rel=1e-12)


def test_degenerate_interval():
    assert integrate_panels(np.sin, 2.0, 2.0, width=0.1) == (0.0, 0.0)


def test_error_gate_raises():
    # oscillation far below the panel scale must trip the halving gate
    f = lambda x: np.cos(200.0 * x) ** 2 * np.exp(np.sin(37.0 * x))
    with pytest.raises(PrecisionError):
        check_error(*integrate_panels(f, 0.0, 1.0, width=0.5, order=2))


def test_panel_width_rule():
    # cap binds at desk heights; the zero-gap term takes over only when
    # ln(t/2pi) > 4 / step_cap * pi / 2... just pin the two regimes
    assert critical_panel_width(1e4) == 0.1
    assert critical_panel_width(25.0) == 0.1


def test_gauss_panels_weights_sum():
    nodes, weights = gauss_panels(1.0, 4.0, width=0.3, order=6)
    assert np.sum(weights) == pytest.approx(3.0, rel=1e-13)
    assert nodes.min() > 1.0 and nodes.max() < 4.0


def test_panel_sums_one_panel_is_the_plain_sum():
    # one panel gives the bits of the hand-written GL16 sum it replaced
    x, w = _gl(16)
    f = lambda t: np.cos(t) ** 2 * np.exp(np.sin(3.0 * t))
    for a, u in [(1000.25, 1000.3125), (10494.4, 10494.45), (0.0, 2.0), (7.0, 7.0)]:
        mid, half = 0.5 * (a + u), 0.5 * (u - a)
        want = np.sum(f(mid + half * x) * w) * half
        got = panel_sums(f, np.array([a]), np.array([u]), 16)[0]
        assert got.tobytes() == want.tobytes()


def test_panel_sums_exactness_on_uneven_edges():
    # GL16 is exact to degree 31 on each panel, however wide
    edges = np.array([-1.0, -0.3, 0.05, 0.4, 1.7, 2.0])
    sums = panel_sums(lambda t: t ** 31 - 2.0 * t ** 30, edges[:-1], edges[1:], 16)
    F = lambda t: t ** 32 / 32.0 - 2.0 * t ** 31 / 31.0
    np.testing.assert_allclose(sums, F(edges[1:]) - F(edges[:-1]), rtol=1e-13, atol=1e-15)


def test_edges_cover_interval():
    e = panel_edges(0.0, 1.05, 0.1)
    assert e[0] == 0.0 and e[-1] == 1.05 and len(e) == 12


def test_gk21_literals_match_scipy(monkeypatch):
    import scipy.integrate._quad_vec as qv
    from zetalab import quad

    seen = {}

    def capture(a, b, f, norm_func, x, w, v):
        seen.update(x=x, w=w, v=v)

    monkeypatch.setattr(qv, "_quadrature_gk", capture)
    qv._quadrature_gk21(0.0, 1.0, np.sin, abs)
    assert np.array_equal(quad._GK_X, np.array(seen["x"], dtype=float))
    assert np.array_equal(quad._GK_WK, np.array(seen["v"]))
    assert np.array_equal(quad._GK_WG[1::2], np.array(seen["w"]))
    assert not quad._GK_WG[0::2].any()


def _kronrod(f, edges):
    """GK21 of f over the panels between `edges`: (value, |K21 - G10|)."""
    nodes, half = _nodes(edges[:-1], edges[1:], _GK_X)
    return kronrod_sums(f(nodes.ravel()).reshape(nodes.shape), half)


def test_kronrod_exactness_and_estimate():
    # K21 is exact to degree 31 and G10 to degree 19 on each panel
    val, err = _kronrod(lambda x: x ** 31, np.array([0.0, 2.0]))
    assert val == pytest.approx(2.0 ** 32 / 32.0, rel=1e-14)
    assert err > 1e-6 * val
    val, err = _kronrod(lambda x: x ** 19, np.array([0.0, 1.0, 2.0]))
    assert val == pytest.approx(2.0 ** 20 / 20.0, rel=1e-14) and err <= 1e-10
    # the |K21 - G10| estimate covers the true error
    val, err = _kronrod(np.cos, panel_edges(0.0, 30.0, 3.0))
    assert abs(val - math.sin(30.0)) <= err


def _run_edges(runs):
    """Left ends of every panel of `runs`, then the last panel's right end."""
    lefts = np.concatenate([mids - half for mids, half in runs])
    mids, half = runs[-1]
    return np.append(lefts, mids[-1] + half)


def test_sigma_panel_edges_rule():
    # away from the pole: one run of uniform panels two mean zero gaps at
    # t_hi wide, mids = a + (2k+1) h
    t_hi = 10494.42
    gap = 2.0 * math.pi / math.log(t_hi / (2.0 * math.pi))
    runs = sigma_panel_runs(1.0, 1e4, t_hi)
    assert len(runs) == 1
    ref = panel_edges(1e4, t_hi, 2.0 * gap)
    mids, half = runs[0]
    assert half == (t_hi - 1e4) / (2 * (len(ref) - 1))
    assert np.array_equal(mids, 1e4 + (2 * np.arange(len(ref) - 1) + 1) * half)
    np.testing.assert_allclose(_run_edges(runs), ref, rtol=1e-15, atol=0)
    # near it: no panel wider than its left end's distance to s = 1, each
    # graded panel a run of its own
    runs = sigma_panel_runs(1.0, 0.1, 3.0)
    assert [len(m) for m, _ in runs] == [1, 1, 1, 1, 1]
    np.testing.assert_allclose(_run_edges(runs), [0.1, 0.2, 0.4, 0.8, 1.6, 3.0], rtol=1e-15)
    for sigma, t_lo, t_hi in [(0.6, 0.0, 4.0), (1.0, 1e-9, 50.0), (1.2, 0.0, 100.0)]:
        e = _run_edges(sigma_panel_runs(sigma, t_lo, t_hi))
        assert e[[0, -1]] == pytest.approx([t_lo, t_hi], rel=1e-15, abs=1e-24)
        assert np.all(np.diff(e) > 0)
        assert np.all(np.diff(e) <= np.hypot(sigma - 1.0, e[:-1]) * (1 + 1e-15))
    # the grading is geometric, so a window by the pole stays small
    assert len(_run_edges(sigma_panel_runs(1.0, 1e-9, 50.0))) < 60
