"""Panel Gauss-Legendre and Gauss-Kronrod quadrature with deterministic
reductions.

Panel meshes are generated from the interval endpoints alone, node
blocks are fixed-size, and cross-panel reduction uses math.fsum (exactly
rounded, hence independent of evaluation order).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, List, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import DomainError, PrecisionError

TWO_PI = 2.0 * math.pi


@functools.lru_cache(maxsize=None)
def _gl(order: int) -> Tuple[np.ndarray, np.ndarray]:
    return leggauss(order)


@functools.lru_cache(maxsize=None)
def _gl_inner_gap(order: int) -> np.ndarray:
    """Per node of a GL(order) panel, 1 - v/w: w the Gauss weights, v those
    of the interpolatory rule on the order - 2 inner nodes (0 at the outer
    two).  Times a panel's weighted GL samples, summed, this is GL minus
    that rule: an error estimate of a rule exact to degree order - 3, so a
    pessimistic one for GL.  For order 8 the inner weights are 0.492,
    0.016, 0.492 mirrored, all positive."""
    x, w = _gl(order)
    k = np.arange(order - 2)
    moments = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    v = np.linalg.solve(np.vander(x[1:-1], increasing=True).T, moments)
    return 1.0 - np.concatenate([[0.0], v, [0.0]]) / w


def critical_panel_width(t: float) -> float:
    """Panel-width rule for critical-line integrands: no wider than 0.1,
    and no wider than a quarter of the local zero gap 2pi/ln(t/2pi)."""
    t = max(float(t), 20.0)
    gap = TWO_PI / math.log(t / TWO_PI)
    return min(0.1, 0.25 * gap)


def sigma_panel_runs(sigma: float, t_lo: float, t_hi: float) -> List[Tuple[np.ndarray, float]]:
    """Panels for |zeta(sigma+it)|^2 on [t_lo, t_hi] as runs (mids, half)
    of equal-width panels [mid - half, mid + half].

    Panels are two mean zero gaps at t_hi wide (the integrand's highest
    frequency is ln(t/2pi), so its shortest period is one gap), except
    that no panel is wider than its left end's distance to the pole
    s = 1: near the pole the panels grow geometrically away from it, each
    a run of its own.  The uniform panels that follow form one run,
    mids = a + (2k+1) h, whose last panel ends at t_hi up to round-off.
    """
    width = 2.0 * TWO_PI / math.log(max(float(t_hi), 20.0) / TWO_PI)
    runs = []
    a = float(t_lo)
    # d = 0 only at the pole itself, where the panels cannot shrink to fit
    while 0.0 < (d := math.hypot(sigma - 1.0, a)) < min(width, t_hi - a):
        runs.append((np.array([a + 0.5 * d]), 0.5 * d))
        a += d
    n = max(1, int(math.ceil((t_hi - a) / width)))
    h = (t_hi - a) / (2 * n)
    runs.append((a + (2 * np.arange(n) + 1) * h, h))
    return runs


def panel_edges(a: float, b: float, width: float) -> np.ndarray:
    if not (b >= a):
        raise DomainError("integration interval must have a <= b")
    n = max(1, int(math.ceil((b - a) / width)))
    return np.linspace(a, b, n + 1)


def _nodes(e0: np.ndarray, e1: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rule nodes x on [-1, 1] mapped onto the panels [e0, e1], one row per
    panel, and the panels' half widths."""
    mid = 0.5 * (e0 + e1)
    half = 0.5 * (e1 - e0)
    return mid[:, None] + half[:, None] * x[None, :], half


def gauss_panels(
    a: float, b: float, width: float, order: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of per-panel Gauss-Legendre over [a, b]."""
    edges = panel_edges(a, b, width)
    x, w = _gl(order)
    nodes, half = _nodes(edges[:-1], edges[1:], x)
    return nodes.ravel(), (half[:, None] * w[None, :]).ravel()


def panel_sums(
    f: Callable[[np.ndarray], np.ndarray], e0: np.ndarray, e1: np.ndarray, order: int
) -> np.ndarray:
    """GL(order) integrals of f over the panels [e0, e1], one per panel.
    f gets the nodes as one flat array.  The weighted sums are fixed-order
    numpy reductions, not BLAS, as in `kronrod_sums`."""
    x, w = _gl(order)
    nodes, half = _nodes(e0, e1, x)
    return (f(nodes.ravel()).reshape(nodes.shape) * w).sum(axis=1) * half


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    width: float,
    order: int = 8,
) -> Tuple[float, float]:
    """Integrate f over [a, b]; returns (value, error_estimate).

    GL(order) on each panel and on its two halves: the value is the fsum
    of the halves' sums, the error estimate the fsum of |halves - whole|.
    """
    if a == b:
        return 0.0, 0.0
    edges = panel_edges(a, b, width)
    coarse = panel_sums(f, edges[:-1], edges[1:], order)
    mids = 0.5 * (edges[:-1] + edges[1:])
    fine = panel_sums(f, edges[:-1], mids, order) + panel_sums(f, mids, edges[1:], order)
    return math.fsum(fine.tolist()), math.fsum(np.abs(fine - coarse).tolist())


# QUADPACK dqk21 on x >= 0, outermost node first: Kronrod nodes, Kronrod
# weights, and the 10-point Gauss weights at the same nodes (0 at the
# Kronrod-only ones); the rule is symmetric about x = 0
_XGK = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0,
)
_WGK = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169,
)
_WG = (
    0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
    0.0, 0.26926671930999635, 0.0, 0.29552422471475287, 0.0,
)

_GK_X = np.array(_XGK + tuple(-x for x in _XGK[-2::-1]))
_GK_WK = np.array(_WGK + _WGK[-2::-1])
_GK_WG = np.array(_WG + _WG[-2::-1])


def kronrod_sums(vals: np.ndarray, half: np.ndarray) -> Tuple[float, float]:
    """GK21 over panels from their samples `vals` (one row of 21 per panel)
    and half widths: the fsum of the panels' Kronrod sums, and the fsum of
    |Kronrod - Gauss| as the error estimate.  The weighted sums are
    fixed-order numpy reductions, not BLAS, so they do not depend on the
    BLAS thread count."""
    kronrod = (vals * _GK_WK).sum(axis=1) * half
    gauss = (vals * _GK_WG).sum(axis=1) * half
    return math.fsum(kronrod.tolist()), math.fsum(np.abs(kronrod - gauss).tolist())


def check_error(value: float, err: float, what: str = "integral") -> Tuple[float, float]:
    """The moments-module acceptance gate: the value and its a-posteriori
    estimate must be finite, and the estimate below 1% of the value."""
    if not (math.isfinite(value) and math.isfinite(err)):
        raise PrecisionError(f"{what}: value {value} or its error estimate {err} is not finite",
                             achievable=err)
    if err > 0.01 * max(abs(value), 1e-300) and err > 1e-12:
        raise PrecisionError(
            f"{what}: quadrature error {err:.3e} exceeds 1% of value {value:.6e}",
            achievable=err,
        )
    return value, err
