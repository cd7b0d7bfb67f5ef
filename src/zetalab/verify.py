"""PASS/FAIL suites of (check, passed, detail) triples for `zetalab verify`
and tests/test_acceptance.py; each acceptance band and trend clause lives only here.
Package functions are called through their modules, so that anything
patched onto a module attribute sees the calls.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import zeta as real_zeta

from . import argz, functionals, gram as gram_mod, ladders, moments, sums
from .config import ABS_TOL, DomainError
from .zeta import EULER_GAMMA

Check = Tuple[str, bool, str]


def asymptotics(heights: Sequence[float]) -> List[Check]:
    """Pair and fourth-power sum ratios in [0.4, 1.6], and the |r-1| trend."""
    checks = []
    for kind in ("pair", "fourth"):
        ratios = sums.verify_asymptotic_trend(kind, heights)
        for T, r in zip(heights, ratios):
            checks.append((f"{kind}-band-T={T:g}", 0.4 <= r <= 1.6, f"ratio={r:.4f}"))
        dev = [abs(r - 1.0) for r in ratios]
        checks.append((f"{kind}-trend", dev[-1] <= dev[-2],
                       "|r-1| non-increasing over top two heights: "
                       + ",".join(f"{d:.4f}" for d in dev)))
    return checks


def gram(nu_max: int) -> List[Check]:
    """Gram points 1..nu_max increase and solve theta(t) = nu*pi to ABS_TOL."""
    pts = gram_mod.gram_points(1, nu_max)
    worst = max(p.residual for p in pts)
    mono = all(b.t > a.t for a, b in zip(pts, pts[1:]))
    return [("gram-residuals", worst <= ABS_TOL, f"worst={worst:.3e}"),
            ("gram-monotone", mono, f"nu<={nu_max}")]


def branch(n_heights: int, seed: int) -> List[Check]:
    """At random t in [10, 1e4], N(t) is an integer to 1e-8 and matches the zero scan."""
    if n_heights < 1:
        raise DomainError("n_heights must be >= 1")
    hs = (10.0 + np.random.default_rng(seed).random(n_heights) * (1e4 - 10.0)).tolist()
    ev = argz.shared_s1_evaluator()
    ev.ensure(max(hs) + 1.0)
    traces = [argz.s_of_t(t) for t in hs]
    worst = max(tr.branch_residual for tr in traces)
    count_ok = all(tr.zero_count == ev.zeros_cache.count_below(t) for t, tr in zip(hs, traces))
    return [("branch-integrality", worst <= 1e-8, f"worst residual={worst:.3e}"),
            ("branch-count-vs-signchanges", count_ok, f"{n_heights} heights")]


def ladder(heights: Sequence[float]) -> List[Check]:
    """Each step T -> U meets its defining equation to 1e-6*T, gap/pred in [0.8, 1.2]."""
    if len(heights) == 0:
        raise DomainError("the ladder suite needs at least one height")
    checks = []
    for T in heights:
        chain = ladders.ladder_chain(T, 1)
        U, resid = chain.iterates[0], chain.residuals[0]
        gap_pred = (1.0 - EULER_GAMMA) * T / math.log(T)
        checks.append((f"ladder-residual-T={T:g}", resid <= 1e-6 * T, f"resid={resid:.3e}"))
        checks.append((f"ladder-gap-T={T:g}", 0.8 <= (U - T) / gap_pred <= 1.2,
                       f"gap/pred={(U - T) / gap_pred:.4f}"))
    return checks


def quotients(heights: Sequence[float]) -> List[Check]:
    """The zeta and S1 quotients over ln T, in [0.85, 1.15] and [0.7, 1.3]."""
    if len(heights) == 0:
        raise DomainError("the quotients suite needs at least one height")
    checks = []
    for T in heights:
        qz = functionals.quotient_zeta(1.0, T)
        check = qz * float(real_zeta(2.0)) / math.log(T)
        checks.append((f"quotient-zeta-T={T:g}", 0.85 <= check <= 1.15,
                       f"normalized={check:.4f}"))
        est = moments.estimate_cbar(1, T, max(T ** 0.6, T / 10.0))
        qs = functionals.quotient_s1(1, T)
        s_check = qs * est.cbar / math.log(T)
        checks.append((f"quotient-s1-T={T:g}", 0.7 <= s_check <= 1.3,
                       f"normalized={s_check:.4f} cbar={est.cbar:.4f}"))
    return checks
