"""Reverse iterations of the ladder map and their partition properties.

The reverse step is defined operationally: U = T^1 solves

    integral_T^U Z(t)^2 dt = (1 - c) * T,      c = Euler-Mascheroni gamma,

i.e. the almost-linear increment formula with its error term dropped.
Chains T < T^1 < ... < T^k then partition both the segment and the
second-moment integral into asymptotically equal parts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .config import ABS_TOL, DomainError, RootError
from .moments import second_moment_critical
from .quad import _gl_inner_gap, critical_panel_width, gauss_panels, panel_sums
from .zeta import _BLOCK, EULER_GAMMA, MAX_HEIGHT, hardy_z_many


@dataclass(frozen=True)
class LadderChain:
    base: float
    iterates: List[float]  # T^1 < T^2 < ... < T^k
    residuals: List[float]  # per-step |integral - (1-c) T^{r-1}|
    slices: List[float]  # per-step integral of Z^2 over [T^{r-1}, T^r]

    @property
    def k(self) -> int:
        return len(self.iterates)

    def heights(self) -> List[float]:
        return [self.base] + list(self.iterates)


@dataclass(frozen=True)
class PartitionReport:
    gap_ratios: List[float]  # (T^{r+1}-T^r) / (T^r - T^{r-1})
    integral_ratios: List[float]  # consecutive slice second moments
    gap_prediction_ratios: List[float]  # gap / ((1-c) T^{r-1} / ln T^{r-1})


def _bracket(T: float, target: float) -> Tuple[float, float, float, float]:
    """(base, a, b, base_err): the GL8 panel [a, b] of [T, hi] in which the
    running integral of Z^2 from T first reaches target, the integral over
    [T, a], and its error estimate.

    hi starts 2.2 predicted gaps above T and grows by 1.6 until the
    integral reaches target.  Z is evaluated one block of nodes at a time,
    only up to the crossing panel; Z above the crossover depends only on
    its own t, so the running sums are a prefix of those over all nodes.
    base_err is the fsum over the panels of [T, a] of |GL8 - I6|, I6 the
    interpolatory rule on a panel's six inner nodes (`quad._gl_inner_gap`),
    from the same samples: the estimate of a degree-5 rule, so a
    pessimistic one for GL8.
    """
    gap0 = target / math.log(T)
    width = critical_panel_width(T + 3.0 * gap0)
    inner = _gl_inner_gap(8)
    hi = T + 2.2 * gap0
    for _ in range(8):
        nodes, weights = gauss_panels(T, hi, width, order=8)
        parts, diffs = [], []
        for j in range(0, len(nodes), _BLOCK):
            z = hardy_z_many(nodes[j : j + _BLOCK])
            wz2 = (z * z * weights[j : j + _BLOCK]).reshape(-1, 8)
            parts.append(wz2.sum(axis=1))
            diffs.append(np.abs((wz2 * inner).sum(axis=1)))
            cum = np.concatenate([[0.0], np.cumsum(np.concatenate(parts))])
            if cum[-1] >= target:
                edges = np.linspace(T, hi, len(nodes) // 8 + 1)
                i = int(np.searchsorted(cum, target)) - 1
                base_err = math.fsum(np.concatenate(diffs)[:i].tolist())
                return float(cum[i]), float(edges[i]), float(edges[i + 1]), base_err
        hi = T + (hi - T) * 1.6
    raise RootError(f"failed to bracket the reverse iterate of T={T}")


_POLISH_STEPS = 120  # cap on the Newton/bisection polish of T^1


def reverse_iterate(T: float) -> float:
    """The first reverse iterate T^1 of T (see module docstring).

    Bracketed cumulative quadrature from the predicted gap, evaluated
    only up to the panel where it crosses the target (`_bracket`), then a
    safeguarded Newton/bisection polish inside that panel.  The
    defining-equation residual must come out below ABS_TOL * T.
    """
    return _reverse_iterate(float(T))[0]


@functools.lru_cache(maxsize=None)
def _reverse_iterate(T: float) -> Tuple[float, float, float]:
    """(T^1, window, window_err): the reverse iterate, the integral of Z^2
    over [T, T^1] that it solved for, base + GL16 on the tail [a, T^1],
    and that integral's error estimate, the bracket's base_err plus
    |GL16 - GL8| on the tail.  T^1 alone is `reverse_iterate`; the window
    is what `functionals._crit_window` reads.  T must lie in [100, MAX_HEIGHT]."""
    if not (100.0 <= T <= MAX_HEIGHT):
        raise DomainError(f"reverse_iterate requires 100 <= T <= {MAX_HEIGHT:g}")
    target = (1.0 - EULER_GAMMA) * T
    base, a, b, base_err = _bracket(T, target)

    def z2(ts: np.ndarray) -> np.ndarray:
        z = hardy_z_many(ts)
        return z * z

    def tail(u: float, order: int = 16) -> float:
        # [a, u] lies inside one GL8 panel of the bracket, so one GL16 panel covers it
        return float(panel_sums(z2, np.array([a]), np.array([u]), order)[0])

    def g(u: float) -> float:
        return base + tail(u) - target

    lo_, hi_ = a, b
    u = 0.5 * (a + b)
    for _ in range(_POLISH_STEPS):
        gu = g(u)
        if gu > 0:
            hi_ = u
        else:
            lo_ = u
        # Newton with derivative Z(u)^2; rejected near zeros of Z or when
        # the step leaves the bracket, falling back to bisection.
        zu = float(hardy_z_many(np.array([u]))[0])
        deriv = zu * zu
        u_next = 0.5 * (lo_ + hi_)
        if deriv > 1e-8:
            cand = u - gu / deriv
            if lo_ < cand < hi_:
                u_next = cand
        if abs(u_next - u) < 1e-13 * T:
            u = u_next
            break
        u = u_next

    t16 = tail(u)
    window = base + t16
    resid = abs(window - target)
    if resid > ABS_TOL * T:
        raise RootError(
            f"reverse_iterate residual {resid:.3e} exceeds ABS_TOL*T at T={T}"
        )
    return u, window, base_err + abs(t16 - tail(u, 8))


def ladder_chain(T: float, k: int) -> LadderChain:
    """k reverse iterates of T with their defining-equation residuals."""
    if not (1 <= k <= 20):
        raise DomainError("need 1 <= k <= 20")
    iterates: List[float] = []
    residuals: List[float] = []
    slices: List[float] = []
    cur = float(T)
    for _ in range(k):
        nxt = reverse_iterate(cur)
        target = (1.0 - EULER_GAMMA) * cur
        got = second_moment_critical(cur, nxt).value
        iterates.append(nxt)
        residuals.append(abs(got - target))
        slices.append(got)
        cur = nxt
    return LadderChain(base=float(T), iterates=iterates, residuals=residuals,
                       slices=slices)


def partition_report(chain: LadderChain) -> PartitionReport:
    """The three ratio families behind the equidistant-partition claims."""
    if chain.k < 2:
        raise DomainError("partition_report needs a chain with k >= 2")
    hs = chain.heights()
    gaps = [hs[r + 1] - hs[r] for r in range(chain.k)]
    slices = chain.slices
    gap_ratios = [gaps[r + 1] / gaps[r] for r in range(chain.k - 1)]
    integral_ratios = [slices[r + 1] / slices[r] for r in range(chain.k - 1)]
    preds = [(1.0 - EULER_GAMMA) * hs[r] / math.log(hs[r]) for r in range(chain.k)]
    gap_prediction_ratios = [gaps[r] / preds[r] for r in range(chain.k)]
    return PartitionReport(
        gap_ratios=gap_ratios,
        integral_ratios=integral_ratios,
        gap_prediction_ratios=gap_prediction_ratios,
    )
