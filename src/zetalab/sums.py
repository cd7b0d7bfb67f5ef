"""Gram-indexed pair sums and fourth-power sums with their main terms.

Index inclusion follows t_nu in [t_lo, t_hi); the paired factor
Z^2(t_{nu+1}) may use the Gram point just outside the window.  When the
window is exactly [T, 2T) the established main term is attached:
(3/4pi^5) T ln^5 T for the pair sum, (1/4pi^3) T ln^5 T for the
fourth-power sum.  `verify_asymptotic_trend` returns those ratios, one
per height of a run; `zetalab.verify` judges them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .config import DomainError
from .gram import _gram_table, _gram_z, _index_bounds
from .zeta import TWO_PI

PAIR_MAIN_CONSTANT = 3.0 / (4.0 * math.pi ** 5)
FOURTH_MAIN_CONSTANT = 1.0 / (4.0 * math.pi ** 3)


@dataclass(frozen=True)
class SumResult:
    terms: int
    value: float
    main_term: Optional[float]
    ratio: Optional[float]


_KINDS = ("pair", "fourth")


def _gram_sum(t_lo: float, t_hi: float, kind: str) -> SumResult:
    """The pair or fourth-power sum over [t_lo, t_hi), from the Gram table:
    both kinds, and every window, read the same solved points and Z values,
    those of the window's points and the point past it."""
    if not (TWO_PI < t_lo < t_hi):
        raise DomainError("sum window requires 2*pi < t_lo < t_hi")
    t_lo, t_hi = float(t_lo), float(t_hi)
    lo, hi = _index_bounds(t_lo, t_hi)
    value = 0.0
    terms = 0
    if hi >= lo:
        # one index past the window for the pair's last factor
        ts, _ = _gram_table(lo, hi + 1)
        inside = np.nonzero((t_lo <= ts[:-1]) & (ts[:-1] < t_hi))[0]
        terms = len(inside)
        if terms:
            z = _gram_z(lo + int(inside[0]), lo + int(inside[-1]) + 1)
            if kind == "pair":
                z2 = z ** 2
                value = math.fsum((z2[:-1] * z2[1:]).tolist())
            else:
                value = math.fsum((z[:-1] ** 4).tolist())

    main = None
    if abs(t_hi - 2.0 * t_lo) <= 1e-9 * t_hi:
        const = PAIR_MAIN_CONSTANT if kind == "pair" else FOURTH_MAIN_CONSTANT
        main = const * t_lo * math.log(t_lo) ** 5
    return SumResult(terms=terms, value=value, main_term=main,
                     ratio=None if main is None else value / main)


def titchmarsh_sum(t_lo: float, t_hi: float) -> SumResult:
    """sum of Z^2(t_nu) Z^2(t_{nu+1}) over Gram indices with t_nu in [t_lo, t_hi)."""
    return _gram_sum(t_lo, t_hi, "pair")


def fourth_power_sum(t_lo: float, t_hi: float) -> SumResult:
    """sum of Z^4(t_nu) over Gram indices with t_nu in [t_lo, t_hi)."""
    return _gram_sum(t_lo, t_hi, "fourth")


def verify_asymptotic_trend(kind: str, heights: Sequence[float]) -> List[float]:
    """Ratios r(T) of the sum over [T, 2T) to its main term, one per
    height; `zetalab.verify.asymptotics` judges them."""
    if kind not in _KINDS:
        raise DomainError("kind must be 'pair' or 'fourth'")
    hs = [float(h) for h in heights]
    if len(hs) < 3 or any(b <= a for a, b in zip(hs, hs[1:])):
        raise DomainError("need at least 3 strictly increasing heights")
    # a [T, 2T) window always carries its main term, hence a ratio
    return [_gram_sum(T, 2.0 * T, kind).ratio for T in hs]
