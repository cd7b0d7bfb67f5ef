"""Gram-indexed pair sums and fourth-power sums with their main terms.

Index inclusion follows t_nu in [t_lo, t_hi); the paired factor
Z^2(t_{nu+1}) may use the Gram point just outside the window.  When the
window is exactly [T, 2T) the established main term is attached:
(3/4pi^5) T ln^5 T for the pair sum, (1/4pi^3) T ln^5 T for the
fourth-power sum.  `verify_asymptotic_trend` reports those ratios over
a run of heights; `zetalab.verify` judges them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import DomainError
from .gram import _index_bounds, _solve_many
from .zeta import TWO_PI, hardy_z_many

PAIR_MAIN_CONSTANT = 3.0 / (4.0 * math.pi ** 5)
FOURTH_MAIN_CONSTANT = 1.0 / (4.0 * math.pi ** 3)


@dataclass(frozen=True)
class SumResult:
    t_lo: float
    t_hi: float
    kind: str  # "pair" | "fourth"
    terms: int
    value: float
    main_term: Optional[float]
    ratio: Optional[float]


@dataclass(frozen=True)
class TrendReport:
    kind: str
    heights: List[float]
    ratios: List[float]


_KINDS = ("pair", "fourth")


def _gram_sum(t_lo: float, t_hi: float, kind: str) -> SumResult:
    """The pair or fourth-power sum over [t_lo, t_hi)."""
    if not (TWO_PI < t_lo < t_hi):
        raise DomainError("sum window requires 2*pi < t_lo < t_hi")
    return _gram_window(float(t_lo), float(t_hi))[_KINDS.index(kind)]


@functools.lru_cache(maxsize=None)
def _gram_window(t_lo: float, t_hi: float) -> Tuple[SumResult, SumResult]:
    """The (pair, fourth) sums over [t_lo, t_hi), memoised together: both
    kinds share the window's Gram points and Z values, so one solve and
    one Z evaluation serve both.
    """
    lo, hi = _index_bounds(t_lo, t_hi)
    values = {"pair": 0.0, "fourth": 0.0}
    terms = 0
    if hi >= lo:
        # one index past the window for the pair's last factor
        ts, _ = _solve_many(lo, hi + 1)
        inside = np.nonzero((t_lo <= ts[:-1]) & (ts[:-1] < t_hi))[0]
        terms = len(inside)
        if terms:
            z = hardy_z_many(ts[inside[0] : inside[-1] + 2])
            z2 = z ** 2
            values["pair"] = math.fsum((z2[:-1] * z2[1:]).tolist())
            values["fourth"] = math.fsum((z[:-1] ** 4).tolist())

    doubling = abs(t_hi - 2.0 * t_lo) <= 1e-9 * t_hi
    results = []
    for k, const in zip(_KINDS, (PAIR_MAIN_CONSTANT, FOURTH_MAIN_CONSTANT)):
        main = const * t_lo * math.log(t_lo) ** 5 if doubling else None
        results.append(SumResult(
            t_lo=t_lo, t_hi=t_hi, kind=k, terms=terms, value=values[k],
            main_term=main, ratio=None if main is None else values[k] / main,
        ))
    return tuple(results)


def titchmarsh_sum(t_lo: float, t_hi: float) -> SumResult:
    """sum of Z^2(t_nu) Z^2(t_{nu+1}) over Gram indices with t_nu in [t_lo, t_hi)."""
    return _gram_sum(t_lo, t_hi, "pair")


def fourth_power_sum(t_lo: float, t_hi: float) -> SumResult:
    """sum of Z^4(t_nu) over Gram indices with t_nu in [t_lo, t_hi)."""
    return _gram_sum(t_lo, t_hi, "fourth")


def verify_asymptotic_trend(kind: str, heights: Sequence[float]) -> TrendReport:
    """Ratios r(T) of the sum over [T, 2T) to its main term, one per
    height; `zetalab.verify.asymptotics` judges them."""
    if kind not in _KINDS:
        raise DomainError("kind must be 'pair' or 'fourth'")
    hs = [float(h) for h in heights]
    if len(hs) < 3 or any(b <= a for a, b in zip(hs, hs[1:])):
        raise DomainError("need at least 3 strictly increasing heights")
    # a [T, 2T) window always carries its main term, hence a ratio
    ratios = [_gram_sum(T, 2.0 * T, kind).ratio for T in hs]
    return TrendReport(kind=kind, heights=hs, ratios=ratios)
