"""Precision policy and the error taxonomy shared by all evaluators."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import ClassVar
import math

# Residual gate of the structural solves: the Gram defining equation
# (with a representability floor), the ladder defining equation (times T)
# and the `verify --suite gram` band.
ABS_TOL = 1e-10


@dataclass(frozen=True)
class PrecisionConfig:
    """The accuracy gate, the one settable part of the numerical policy.

    eval_tol is the acceptance threshold for the a-posteriori accuracy
    bound of a single zeta/Z evaluation; a bound above it raises
    PrecisionError rather than returning a silently degraded value.  It
    moves no value: a run either returns the same numbers or stops.  The
    CLI sets it with `--eval-tol`, and `__post_init__` is the one check
    of its value.  Everything else is fixed: ABS_TOL above, the 0.1 panel
    cap of `quad.critical_panel_width`, the sigma steps of `argz.s_of_t`
    and the Euler-Maclaurin cutoff rule below.
    """

    # Euler-Maclaurin cutoff rule: N(t) = ceil(|t|/2pi) + margin(t) with
    # margin(t) = max(em_margin_base, ceil(em_margin_scale * sqrt(|t|))).
    # The sqrt term keeps the attainable truncation floor near 1e-11 at
    # desk heights; a flat margin cannot (its floor grows like 1e-3 by
    # t ~ 5e4).
    em_margin_base: ClassVar[int] = 50
    em_margin_scale: ClassVar[float] = 2.0
    eval_tol: float = 1e-5

    def __post_init__(self) -> None:
        value = self.eval_tol
        if isinstance(value, bool) or not isinstance(value, Real):
            raise DomainError(f"eval_tol must be a number, got {value!r}")
        if not (value > 0 and math.isfinite(value)):
            raise DomainError("eval_tol must be positive and finite")

    @classmethod
    def em_cutoff(cls, t: float) -> int:
        """Euler-Maclaurin main-sum cutoff N for imaginary part t."""
        t = abs(float(t))
        margin = max(cls.em_margin_base, int(math.ceil(cls.em_margin_scale * math.sqrt(t))))
        return int(math.ceil(t / (2.0 * math.pi))) + margin

    def check_eval(self, bound: float, what: str) -> None:
        """The accuracy gate: raise PrecisionError when the a-posteriori
        bound of an evaluation exceeds eval_tol."""
        if bound > self.eval_tol:
            raise PrecisionError(
                f"{what} attainable only to {bound:.2e} > eval_tol", achievable=bound
            )


DEFAULT_CONFIG = PrecisionConfig()


class ZetaLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ZetaLabError, ValueError):
    """Input outside an operation's stated domain."""


class PoleError(DomainError):
    """Evaluation requested at the pole s = 1."""


class PrecisionError(ZetaLabError):
    """Requested accuracy is unattainable; carries the achievable bound."""

    def __init__(self, message: str, achievable: float | None = None):
        super().__init__(message)
        self.achievable = achievable


class RootError(ZetaLabError):
    """A root finder failed to converge or to bracket."""


class TrackingError(ZetaLabError):
    """Branch tracking rejected a step (argument variation too fast)."""


class AmbiguousBranchError(TrackingError):
    """S(t) requested at (or numerically at) a zero ordinate."""


class CacheMissError(ZetaLabError):
    """A required cached constant (c-bar estimate) is unavailable."""
