"""Gram-indexed pair and fourth-power sums and their asymptotic ratios."""

import math

import mpmath as mp
import numpy as np
import pytest

from zetalab import (
    DomainError,
    fourth_power_sum,
    gram_points,
    gram_range,
    hardy_z_many,
    titchmarsh_sum,
    verify_asymptotic_trend,
)
from zetalab import sums, verify
from zetalab.sums import FOURTH_MAIN_CONSTANT, PAIR_MAIN_CONSTANT

# Desk-scale ratios, frozen from this pipeline after oracle spot-checks
# of Z at Gram points (25 random indices to 3e-9 against mpmath).  Both
# asymptotics converge slowly: the pair ratio sits below 1, the fourth
# ratio above 2 at these heights.
FROZEN_PAIR_RATIO_1E3 = 0.8641
FROZEN_FOURTH_RATIO_1E3 = 2.7767


class TestConstants:
    def test_pair_constant(self):
        assert PAIR_MAIN_CONSTANT == 3.0 / (4.0 * math.pi ** 5)
        assert PAIR_MAIN_CONSTANT == pytest.approx(0.00245082, rel=1e-5)

    def test_fourth_constant(self):
        assert FOURTH_MAIN_CONSTANT == 1.0 / (4.0 * math.pi ** 3)
        assert FOURTH_MAIN_CONSTANT == pytest.approx(0.00806288, rel=1e-5)


class TestPairSum:
    def test_empty_below_first_gram(self):
        res = titchmarsh_sum(7.0, 16.0)
        assert res.value == 0.0 and res.terms == 0

    def test_additivity_exact(self):
        a = titchmarsh_sum(300.0, 450.0)
        b = titchmarsh_sum(450.0, 600.0)
        whole = titchmarsh_sum(300.0, 600.0)
        assert a.value + b.value == pytest.approx(whole.value, rel=1e-13)
        assert a.terms + b.terms == whole.terms

    def test_main_term_only_for_doubling_window(self):
        assert titchmarsh_sum(300.0, 450.0).main_term is None
        res = titchmarsh_sum(300.0, 600.0)
        assert res.main_term == pytest.approx(
            PAIR_MAIN_CONSTANT * 300.0 * math.log(300.0) ** 5, rel=1e-12
        )

    def test_ratio_band_at_5e3(self):
        res = titchmarsh_sum(5e3, 1e4)
        assert res.ratio is not None and 0.4 <= res.ratio <= 1.6

    def test_frozen_ratio_1e3(self):
        res = titchmarsh_sum(1e3, 2e3)
        assert res.ratio == pytest.approx(FROZEN_PAIR_RATIO_1E3, abs=2e-4)

    def test_partial_sum_against_oracle(self):
        rng = gram_range(1000.0, 1030.0)
        pts = rng.points
        import zetalab

        nxt = zetalab.gram_point(pts[-1].nu + 1)
        acc = mp.mpf(0)
        ts = [p.t for p in pts] + [nxt.t]
        for a, b in zip(ts[:-1], ts[1:]):
            acc += mp.siegelz(a) ** 2 * mp.siegelz(b) ** 2
        ours = titchmarsh_sum(1000.0, 1030.0).value
        assert ours == pytest.approx(float(acc), rel=1e-8)

    def test_terms_matches_gram_count(self):
        res = titchmarsh_sum(777.0, 888.0)
        assert res.terms == gram_range(777.0, 888.0).count


class TestFourthSum:
    def test_empty(self):
        assert fourth_power_sum(7.0, 16.0).value == 0.0

    def test_frozen_ratio_1e3(self):
        res = fourth_power_sum(1e3, 2e3)
        assert res.ratio == pytest.approx(FROZEN_FOURTH_RATIO_1E3, abs=2e-4)

    def test_cauchy_schwarz_vs_pair(self):
        # pair sum <= sqrt(sum Z^4(t_nu)) * sqrt(sum Z^4(t_{nu+1})),
        # on ten seeded random windows
        import zetalab

        rng = np.random.default_rng(23)
        for _ in range(10):
            lo = 100.0 + 2000.0 * float(rng.random())
            hi = lo + 50.0 + 300.0 * float(rng.random())
            pair = titchmarsh_sum(lo, hi)
            pts = gram_range(lo, hi).points
            if not pts:
                continue
            a = fourth_power_sum(lo, hi)
            shifted = zetalab.gram_points(pts[0].nu + 1, pts[-1].nu + 1)
            z = zetalab.hardy_z_many(np.array([p.t for p in shifted]))
            b = float(np.sum(z ** 4))
            assert pair.value <= math.sqrt(a.value) * math.sqrt(b) + 1e-9

    def test_nonnegative(self):
        assert fourth_power_sum(300.0, 700.0).value >= 0.0


class TestSharedWindow:
    @staticmethod
    def _separate_solves(t_lo, t_hi):
        """The pair and fourth-power sums as computed before the window was
        shared: gram_range, then gram_points again for the pair."""
        pts = gram_range(t_lo, t_hi).points
        ts = np.array([p.t for p in gram_points(pts[0].nu, pts[-1].nu + 1)])
        z2 = hardy_z_many(ts) ** 2
        pair = math.fsum((z2[:-1] * z2[1:]).tolist())
        z = hardy_z_many(np.array([p.t for p in pts]))
        fourth = math.fsum((z ** 4).tolist())
        return len(pts), pair, fourth

    @pytest.mark.parametrize("T", [1e3, 5e3])
    def test_one_solve_matches_separate_solves(self, T):
        terms, pair, fourth = self._separate_solves(T, 2.0 * T)
        a = titchmarsh_sum(T, 2.0 * T)
        b = fourth_power_sum(T, 2.0 * T)
        assert a.terms == b.terms == terms
        assert a.value == pair
        assert b.value == fourth

    def test_one_memo_entry_serves_both_kinds(self):
        sums._gram_window.cache_clear()
        titchmarsh_sum(400.0, 800.0)
        fourth_power_sum(400.0, 800.0)
        info = sums._gram_window.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestTrend:
    def test_requires_three_heights(self):
        with pytest.raises(DomainError):
            verify_asymptotic_trend("pair", [1e3, 2e3])

    def test_requires_increasing(self):
        with pytest.raises(DomainError):
            verify_asymptotic_trend("pair", [2e3, 1e3, 4e3])

    def test_fourth_trend_improves(self):
        # the trend clause is judged by zetalab.verify alone
        checks = {name: ok for name, ok, _ in verify.asymptotics([1e3, 2e3, 4e3])}
        assert checks["fourth-trend"]
        rep = verify_asymptotic_trend("fourth", [1e3, 2e3, 4e3])
        assert all(r > 1.6 for r in rep.ratios)  # desk-scale bias, documented

    @staticmethod
    def _fitted(rep):
        """The fitted correction constants |r - 1| ln T."""
        return [abs(r - 1.0) * math.log(T) for r, T in zip(rep.ratios, rep.heights)]

    def test_pair_fitted_constant_bounded(self):
        rep = verify_asymptotic_trend("pair", [1e3, 2e3, 4e3])
        assert all(f <= 10.0 for f in self._fitted(rep))

    def test_fourth_fitted_constant_bounded(self):
        # the fourth-power correction constant sits near 12.5 at desk scale
        rep = verify_asymptotic_trend("fourth", [1e3, 2e3, 4e3])
        assert all(f <= 15.0 for f in self._fitted(rep))
