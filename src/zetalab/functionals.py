"""Quotient formulas and the three cross-bred limit functionals.

Each functional couples a window-integral quotient over one ladder step
[T, T^1] with a Gram-indexed sum over [T, 2T), after the substitution
T = K * x * tau:

    kind A:  K = 4pi^5 / (3 zeta^5(2 sigma)),  pair sum,  sigma-line quotient
    kind B:  K = 4pi^5 / (3 cbar(l)^5),        pair sum,  S1-moment quotient
    kind C:  K = 4pi^3 / zeta^5(2 sigma),      fourth sum, sigma-line quotient

value(x, tau) = (1/tau) * num^5 * den^-5 * sum, which tends to x as
tau grows.  T is always computed as K * (x * tau) - the parenthesised
product makes value(x, tau) = x * value(1, x*tau) hold to round-off
exactly, since both calls then hit bitwise-identical windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional

from scipy.special import zeta as real_zeta

from .config import CacheMissError, DomainError, check_eval
from .ladders import _reverse_iterate, reverse_iterate
from .moments import CbarEstimate, check_sigma, s1_moment, second_moment_sigma
from .quad import check_error
from .sums import SumResult, fourth_power_sum, titchmarsh_sum
from .zeta import rs_error_bound

MIN_IMPLIED_T = 100.0


@dataclass(frozen=True)
class FunctionalApproximant:
    T: float
    T1: float
    value: float
    rel_err: float


def substitution_constant(
    kind: str, sigma: Optional[float] = None, cbar: Optional[CbarEstimate] = None
) -> float:
    """The K of T = K * x * tau for each functional kind; kinds A and C
    check sigma against the sigma-line moment's domain first."""
    if kind == "B":
        if cbar is None:
            raise CacheMissError("kind B needs a cached CbarEstimate")
        return 4.0 * math.pi ** 5 / (3.0 * cbar.cbar ** 5)
    if kind not in ("A", "C"):
        raise DomainError(f"unknown functional kind {kind!r}")
    if sigma is None:
        raise DomainError(f"kind {kind} needs sigma")
    check_sigma(sigma)
    if kind == "A":
        return 4.0 * math.pi ** 5 / (3.0 * float(real_zeta(2.0 * sigma)) ** 5)
    return 4.0 * math.pi ** 3 / float(real_zeta(2.0 * sigma)) ** 5


def _crit_window(T: float) -> float:
    """The integral of Z^2 over the ladder step [T, T^1], read from the
    step that solved for it (the `ladders._reverse_iterate` memo) under
    the two gates of `second_moment_critical`: Z's accuracy bound at T^1
    and the 1% quadrature gate."""
    U, window, err = _reverse_iterate(float(T))
    check_eval(float(rs_error_bound(U)), f"Z on [{T}, {U}]")
    return check_error(window, err, what="critical2")[0]


@functools.lru_cache(maxsize=None)
def _sigma_window(sigma: float, T: float) -> float:
    return second_moment_sigma(sigma, T, reverse_iterate(T)).value


def quotient_zeta(sigma: float, T: float) -> float:
    """Ratio of the critical-line to sigma-line second moment over [T, T^1].

    Compare against ln T / zeta(2 sigma).
    """
    check_sigma(sigma)
    return _crit_window(T) / _sigma_window(sigma, T)


def quotient_s1(l: int, T: float) -> float:
    """Ratio of the critical-line second moment to the |S1|^{2l} moment
    over [T, T^1].  Compare against ln T / cbar(l)."""
    if l < 1:
        raise DomainError("l must be >= 1")
    return _crit_window(T) / s1_moment(l, T, reverse_iterate(T)).value


def functional_approximant(
    kind: str,
    x: float,
    tau: float,
    sigma: Optional[float] = None,
    l: Optional[int] = None,
    cbar: Optional[CbarEstimate] = None,
) -> FunctionalApproximant:
    """Finite-tau value of the kind A/B/C functional at target x.

    The implied window base is T = K * (x * tau); tau must be large
    enough that T >= 100.
    """
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError("x must be positive and finite")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise DomainError("tau must be positive and finite")
    K = substitution_constant(kind, sigma=sigma, cbar=cbar)
    T = K * (x * tau)
    if T < MIN_IMPLIED_T:
        raise DomainError(f"implied T = {T:.3g} < {MIN_IMPLIED_T}; increase tau")
    U = reverse_iterate(T)
    den = _crit_window(T)
    if kind in ("A", "C"):
        num = _sigma_window(sigma, T)
    else:
        if l is None:
            raise DomainError("kind B requires l")
        if l != cbar.l:
            raise DomainError("cbar estimate was fitted for a different l")
        num = s1_moment(l, T, U).value
    s: SumResult = (fourth_power_sum if kind == "C" else titchmarsh_sum)(T, 2.0 * T)
    value = (num / den) ** 5 * s.value / tau
    return FunctionalApproximant(T=float(T), T1=float(U), value=float(value),
                                 rel_err=abs(value / x - 1.0))


def chain_compare(
    x: float, sigma: float, l: int, tau: float, cbar: CbarEstimate
) -> Dict[str, FunctionalApproximant]:
    """All three functionals at the same x and implied height, by kind.

    tau applies to kind A; kinds B and C get the tau that puts their
    window base at the same implied T, which is what makes finite-tau
    values comparable (a shared tau would scatter the three windows over
    wildly different heights).
    """
    kA = substitution_constant("A", sigma=sigma)
    T_ref = kA * (x * tau)
    if T_ref < MIN_IMPLIED_T:
        raise DomainError(f"implied T = {T_ref:.3g} < {MIN_IMPLIED_T}; increase tau")
    tau_b = T_ref / (substitution_constant("B", cbar=cbar) * x)
    tau_c = T_ref / (substitution_constant("C", sigma=sigma) * x)
    return {
        "A": functional_approximant("A", x, tau, sigma=sigma),
        "B": functional_approximant("B", x, tau_b, l=l, cbar=cbar),
        "C": functional_approximant("C", x, tau_c, sigma=sigma),
    }
