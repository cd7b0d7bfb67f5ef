"""The Gram sequence theta(t_nu) = pi*nu, nu = 1, 2, ... and range queries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.special import lambertw

from .config import ABS_TOL, DomainError, RootError
from .zeta import MAX_HEIGHT, TWO_PI, theta, theta_deriv


@dataclass(frozen=True)
class GramPoint:
    nu: int
    t: float
    residual: float  # |theta(t) - pi*nu|


_NEWTON_STEPS = 6  # quadratic convergence from the asymptotic inverse

# The last Gram index a window below MAX_HEIGHT can ask for: `_index_bounds`
# reaches one index past the last t_nu below it, and the pair sum one more.
_NU_MAX = int(theta(MAX_HEIGHT) // math.pi) + 2


def _initial_guess(nus: np.ndarray) -> np.ndarray:
    """Invert the theta main term: u ln(u/e) = nu + 1/8 with u = t/2pi."""
    v = (nus + 0.125) / math.e
    return TWO_PI * (nus + 0.125) / np.real(lambertw(v))


def _solve_many(nu_lo: int, nu_hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """(t, |theta(t) - pi*nu|) for nu = nu_lo..nu_hi: Newton from the
    asymptotic inverse, then a last-ulp polish.

    theta carries ~1 ulp of its own magnitude in noise, so after Newton
    converges we try the neighbouring representable t on the side the
    residual points to, and keep it if its residual is smaller.  The
    residual gate is ABS_TOL with a representability floor: once pi*nu
    grows past ~1e5 the theta values move in steps of several 1e-11 per
    ulp of t, and no double can do better than a few ulp of the target.
    """
    if nu_hi > _NU_MAX:
        raise DomainError(f"Gram index {nu_hi} lies above t = {MAX_HEIGHT:g}")
    nus = np.arange(nu_lo, nu_hi + 1, dtype=float)
    target = np.pi * nus
    t = _initial_guess(nus)
    for _ in range(_NEWTON_STEPS):
        resid = theta(t) - target
        t = t - resid / theta_deriv(t)
    resid = theta(t) - target
    cand = np.nextafter(t, np.where(resid > 0, -np.inf, np.inf))
    cand_r = np.abs(theta(cand) - target)
    better = cand_r < np.abs(resid)
    best_t = np.where(better, cand, t)
    best_r = np.where(better, cand_r, np.abs(resid))
    gate = np.maximum(ABS_TOL, 8.0 * np.finfo(float).eps * np.abs(target))
    bad = best_r > gate
    if bad.any():
        worst = int(np.argmax(best_r - gate))
        raise RootError(
            f"Gram solve residual {best_r[worst]:.3e} > tolerance at nu={int(nus[worst])}"
        )
    return best_t, best_r


def gram_point(nu: int) -> GramPoint:
    """The unique root of theta(t) = pi*nu on the increasing branch t > 2pi."""
    if nu < 1:
        raise DomainError("Gram index nu must be >= 1")
    t, r = _solve_many(nu, nu)
    return GramPoint(nu=int(nu), t=float(t[0]), residual=float(r[0]))


def gram_points(nu_lo: int, nu_hi: int) -> List[GramPoint]:
    """Gram points for the inclusive index range [nu_lo, nu_hi]."""
    if nu_lo < 1 or nu_hi < nu_lo:
        raise DomainError("need 1 <= nu_lo <= nu_hi")
    ts, res = _solve_many(nu_lo, nu_hi)
    return [
        GramPoint(nu=n, t=float(t), residual=float(r))
        for n, t, r in zip(range(nu_lo, nu_hi + 1), ts, res)
    ]


def _index_bounds(t_lo: float, t_hi: float) -> Tuple[int, int]:
    """Gram indices lo..hi that can hold a t_nu in [t_lo, t_hi), from
    theta at the endpoints, one index wider on each side: an end within
    round-off of t_nu can put theta(end) / pi on either side of nu.  The
    caller drops the t_nu outside the window, so abutting windows share
    no point and lose none."""
    lo = max(1, int(math.ceil(theta(t_lo) / math.pi)) - 1)
    return lo, int(math.floor(theta(t_hi) / math.pi)) + 1


def gram_range(t_lo: float, t_hi: float) -> List[GramPoint]:
    """The Gram points with t in the half-open window [t_lo, t_hi), by nu.

    Index bounds come from theta at the endpoints; the half-open
    convention makes abutting ranges partition exactly.
    """
    if not (TWO_PI < t_lo < t_hi):
        raise DomainError("gram_range requires 2*pi < t_lo < t_hi")
    lo, hi = _index_bounds(t_lo, t_hi)
    if hi < lo:
        return []
    return [p for p in gram_points(lo, hi) if t_lo <= p.t < t_hi]
