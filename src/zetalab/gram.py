"""The Gram sequence theta(t_nu) = pi*nu, nu = 1, 2, ... and range queries.

Every Gram point comes from one table per process, indexed by nu and
filled in aligned blocks of `_TABLE_BLOCK` indices: a block is solved the
first time any query touches it, and Z at its points is evaluated the
first time a Gram sum asks for it.  Each t_nu is solved on its own (the
Newton steps, the polish and theta work element by element), so a point
does not depend on the block it was solved in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.special import lambertw

from .config import ABS_TOL, DomainError, RootError
from .zeta import MAX_HEIGHT, RS_CROSSOVER, TWO_PI, hardy_z_many, theta, theta_deriv


@dataclass(frozen=True)
class GramPoint:
    nu: int
    t: float
    residual: float  # |theta(t) - pi*nu|


_NEWTON_STEPS = 6  # at most; quadratic convergence from the asymptotic inverse

# The last Gram index a window below MAX_HEIGHT can ask for: `_index_bounds`
# reaches one index past the last t_nu below it, and the pair sum one more.
_NU_MAX = int(theta(MAX_HEIGHT) // math.pi) + 2

_TABLE_BLOCK = 1024  # block b of the table holds nu = 1024 b + 1 .. 1024 (b + 1)


def _initial_guess(nus: np.ndarray) -> np.ndarray:
    """Invert the theta main term: u ln(u/e) = nu + 1/8 with u = t/2pi."""
    v = (nus + 0.125) / math.e
    return TWO_PI * (nus + 0.125) / np.real(lambertw(v))


def _solve_many(nu_lo: int, nu_hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """(t, |theta(t) - pi*nu|) for nu = nu_lo..nu_hi: Newton from the
    asymptotic inverse, then a last-ulp polish.

    Newton stops at a point once a step leaves its t unchanged, since
    every later step would too; the residual of that step is the one of
    its final t.  theta carries ~1 ulp of its own magnitude in noise, so
    after Newton we try the neighbouring representable t on the side the
    residual points to, and keep it if its residual is smaller.
    """
    nus = np.arange(nu_lo, nu_hi + 1, dtype=float)
    target = np.pi * nus
    t = _initial_guess(nus)
    resid = np.empty_like(t)
    moving = np.arange(len(t))
    for _ in range(_NEWTON_STEPS):
        if not moving.size:
            break
        tm = t[moving]
        r = theta(tm) - target[moving]
        step = tm - r / theta_deriv(tm)
        resid[moving], t[moving] = r, step
        moving = moving[step != tm]
    resid[moving] = theta(t[moving]) - target[moving]
    cand = np.nextafter(t, np.where(resid > 0, -np.inf, np.inf))
    cand_r = np.abs(theta(cand) - target)
    better = cand_r < np.abs(resid)
    return np.where(better, cand, t), np.where(better, cand_r, np.abs(resid))


@functools.lru_cache(maxsize=None)
def _solved_block(b: int) -> np.ndarray:
    """Rows t and |theta(t) - pi*nu| of table block b, clipped at _NU_MAX."""
    lo = b * _TABLE_BLOCK + 1
    rows = np.stack(_solve_many(lo, min(lo + _TABLE_BLOCK - 1, _NU_MAX)))
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def _z_block(b: int) -> np.ndarray:
    """Z at table block b's points at or above RS_CROSSOVER, where each
    value depends only on its own t; nan below it."""
    ts = _solved_block(b)[0]
    rs = ts >= RS_CROSSOVER
    z = np.full_like(ts, np.nan)
    z[rs] = hardy_z_many(ts[rs])
    z.flags.writeable = False
    return z


def _read(block, nu_lo: int, nu_hi: int) -> np.ndarray:
    """Columns nu_lo..nu_hi of the table blocks that `block` returns."""
    b_lo = (nu_lo - 1) // _TABLE_BLOCK
    rows = np.concatenate([block(b) for b in range(b_lo, (nu_hi - 1) // _TABLE_BLOCK + 1)],
                          axis=-1)
    start = nu_lo - 1 - b_lo * _TABLE_BLOCK
    return rows[..., start : start + nu_hi - nu_lo + 1]


def _gram_table(nu_lo: int, nu_hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """(t, residual) for nu = nu_lo..nu_hi (nu_lo >= 1) from the table.

    The residual gate applies to these indices alone: ABS_TOL with a
    representability floor, since once pi*nu grows past ~1e5 the theta
    values move in steps of several 1e-11 per ulp of t, and no double
    can do better than a few ulp of the target.
    """
    if nu_hi > _NU_MAX:
        raise DomainError(f"Gram index {nu_hi} lies above t = {MAX_HEIGHT:g}")
    ts, res = _read(_solved_block, nu_lo, nu_hi)
    target = np.pi * np.arange(nu_lo, nu_hi + 1, dtype=float)
    gate = np.maximum(ABS_TOL, 8.0 * np.finfo(float).eps * target)
    if (res > gate).any():
        worst = int(np.argmax(res - gate))
        raise RootError(
            f"Gram solve residual {res[worst]:.3e} > tolerance at nu={nu_lo + worst}"
        )
    return ts, res


def _gram_z(nu_lo: int, nu_hi: int) -> np.ndarray:
    """Z(t_nu) for nu = nu_lo..nu_hi, whose points `_gram_table` has gated.

    At or above RS_CROSSOVER Z comes from the table.  Below it Z comes
    from Euler-Maclaurin blocks, which depend on the block's largest t,
    so those points are evaluated together, and on them alone.
    """
    ts = _read(_solved_block, nu_lo, nu_hi)[0]
    z = _read(_z_block, nu_lo, nu_hi)
    em = ts < RS_CROSSOVER
    if em.any():
        z[em] = hardy_z_many(ts[em])
    return z


def gram_point(nu: int) -> GramPoint:
    """The unique root of theta(t) = pi*nu on the increasing branch t > 2pi."""
    if nu < 1:
        raise DomainError("Gram index nu must be >= 1")
    t, r = _gram_table(nu, nu)
    return GramPoint(nu=int(nu), t=float(t[0]), residual=float(r[0]))


def gram_points(nu_lo: int, nu_hi: int) -> List[GramPoint]:
    """Gram points for the inclusive index range [nu_lo, nu_hi]."""
    if nu_lo < 1 or nu_hi < nu_lo:
        raise DomainError("need 1 <= nu_lo <= nu_hi")
    ts, res = _gram_table(nu_lo, nu_hi)
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
