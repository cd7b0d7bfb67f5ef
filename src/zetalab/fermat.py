"""Exact Fermat-rational arithmetic and its two-channel consistency check.

The arithmetic channel is exact big-integer comparison of x^n + y^n
with z^n (never floating point).  The analytic channel traces a limit
functional whose value tends to the rational (x^n + y^n)/z^n, and the
verdict states whether the two channels agree that the limit differs
from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .config import DomainError
from .functionals import FunctionalApproximant, functional_approximant
from .moments import CbarEstimate

MIN_EXPONENT = 3


@dataclass(frozen=True)
class FermatWitness:
    x: int
    y: int
    z: int
    n: int
    numerator: int  # x^n + y^n, exact
    denominator: int  # z^n, exact
    is_one_exact: bool
    approximants: List[FunctionalApproximant]
    verdict: str

    @property
    def rational(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def _check_inputs(x: int, y: int, z: int, n: int) -> None:
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not (isinstance(v, int) and v >= 1):
            raise DomainError(f"{name} must be a positive integer")
    if not (isinstance(n, int) and n >= MIN_EXPONENT):
        raise DomainError(f"n must be an integer >= {MIN_EXPONENT}")


def fermat_rational(x: int, y: int, z: int, n: int) -> Fraction:
    """(x^n + y^n) / z^n as an exact reduced rational."""
    _check_inputs(x, y, z, n)
    return Fraction(x ** n + y ** n, z ** n)


def fermat_search(max_xyz: int, n_lo: int = 3, n_hi: int = 12) -> List[Tuple[int, int, int, int]]:
    """Exhaustive big-integer search for x^n + y^n = z^n, x,y,z <= max_xyz.

    Returns every solution found (expected: none, for n >= 3).
    """
    if n_lo < MIN_EXPONENT:
        raise DomainError(f"n_lo must be >= {MIN_EXPONENT}")
    hits = []
    for n in range(n_lo, n_hi + 1):
        pows = [k ** n for k in range(max_xyz + 1)]
        table = {pows[k]: k for k in range(1, max_xyz + 1)}
        for x in range(1, max_xyz + 1):
            for y in range(x, max_xyz + 1):
                z = table.get(pows[x] + pows[y])
                if z is not None:
                    hits.append((x, y, z, n))
                    hits.append((y, x, z, n))
    return hits


def fermat_equivalence_check(
    x: int,
    y: int,
    z: int,
    n: int,
    kind: str = "C",
    sigma: Optional[float] = 1.0,
    l: Optional[int] = None,
    cbar: Optional[CbarEstimate] = None,
    tau_schedule: Sequence[float] = (),
) -> FermatWitness:
    """Exact arithmetic verdict plus a functional trace at the rational.

    tau_schedule must be strictly increasing; the trace target is the
    exact rational evaluated in floating point only for the functional's
    x argument, so a rational beyond the float range raises DomainError
    only when a trace is requested.  The verdict combines the channels:
    exact "not one" and a non-diverging approach of the trace to the
    target.  Disagreement between the channels is flagged loudly rather
    than averaged away.
    """
    _check_inputs(x, y, z, n)
    taus = [float(t) for t in tau_schedule]
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise DomainError("tau_schedule must be strictly increasing")
    num = x ** n + y ** n
    den = z ** n
    is_one = num == den

    trace: List[FunctionalApproximant] = []
    trend_ok = None
    if taus:
        try:
            target = num / den
        except OverflowError:
            raise DomainError("(x^n + y^n)/z^n lies beyond the float range; "
                              "no functional trace can target it") from None
        trace = [functional_approximant(kind, target, tau, sigma=sigma, l=l, cbar=cbar)
                 for tau in taus]
        dist = [abs(a.value - target) for a in trace]
        trend_ok = all(b <= a * (1.0 + 1e-9) for a, b in zip(dist, dist[1:]))

    if is_one:
        # Unreachable for n >= 3 by the exhaustive-search ground truth;
        # kept so that a wrong exact channel would shout, not hide.
        verdict = "DISAGREEMENT: exact arithmetic found x^n + y^n = z^n"
    elif trend_ok is None:
        verdict = "not-one (exact); no functional trace requested"
    elif trend_ok:
        verdict = "consistent: exact not-one; functional trace approaches target != 1"
    else:
        verdict = "DISAGREEMENT: exact not-one but functional trace does not approach target"
    return FermatWitness(
        x=x, y=y, z=z, n=n,
        numerator=num, denominator=den,
        is_one_exact=is_one,
        approximants=trace,
        verdict=verdict,
    )
