"""Gram sequence: defining residuals, range queries, count scale."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import (
    DomainError,
    RootError,
    gram_point,
    gram_points,
    gram_range,
    theta,
)
from zetalab import gram
from zetalab.cli import main
from zetalab.gram import _NU_MAX, _initial_guess, _solve_many
from zetalab.sums import titchmarsh_sum
from zetalab.zeta import MAX_HEIGHT, theta_deriv

TWO_PI = 2.0 * math.pi

# mpmath.grampoint anchors (30 digits)
GRAM_1 = 23.170282701246309
GRAM_2 = 27.670182217816071


class TestGramPoint:
    def test_first(self):
        assert gram_point(1).t == pytest.approx(GRAM_1, abs=1e-9)

    def test_second(self):
        assert gram_point(2).t == pytest.approx(GRAM_2, abs=1e-9)

    def test_oracle_spot_checks(self):
        for nu in [10, 1000, 50000]:
            ref = float(mp.grampoint(nu))
            assert gram_point(nu).t == pytest.approx(ref, rel=1e-12)

    def test_defining_residual_at_1e4(self):
        p = gram_point(10000)
        assert abs(theta(p.t) - math.pi * 10000) <= 1e-10

    def test_rejects_nu_zero(self):
        with pytest.raises(DomainError):
            gram_point(0)

    @given(st.integers(min_value=1, max_value=200000))
    @settings(max_examples=40, deadline=None)
    def test_residual_property(self, nu):
        # 1e-10 until the double-precision floor (a few ulp of pi*nu)
        # takes over near nu ~ 1.2e5
        gate = max(1e-10, 8.0 * 2.23e-16 * math.pi * nu)
        assert gram_point(nu).residual <= gate


def _scan_polish_reference(nus):
    """The former polish: Newton, then a scan of t(1 + k eps) for
    |k| <= 6 keeping the smallest residual."""
    target = np.pi * nus
    t = _initial_guess(nus)
    for _ in range(6):
        t = t - (theta(t) - target) / theta_deriv(t)
    best_t = t.copy()
    best_r = np.abs(theta(best_t) - target)
    eps = np.finfo(float).eps
    for k in range(-6, 7):
        cand = t * (1.0 + k * eps)
        r = np.abs(theta(cand) - target)
        better = r < best_r
        best_t[better] = cand[better]
        best_r[better] = r[better]
    return best_t


class TestPolish:
    def test_one_step_matches_the_scan(self):
        # nu from 1 up, plus a block past the representability floor
        nus = np.concatenate([np.arange(1.0, 20001.0), np.arange(2e5, 2.05e5)])
        new = np.concatenate([_solve_many(1, 20000)[0], _solve_many(200000, 204999)[0]])
        old = _scan_polish_reference(nus)
        target = np.pi * nus
        gate = np.maximum(1e-10, 8.0 * np.finfo(float).eps * target)
        assert np.all(np.abs(theta(new) - target) <= gate)
        assert np.all(np.abs(theta(old) - target) <= gate)
        assert np.all(np.abs(new - old) <= 6.0 * np.spacing(old))

    def test_newton_stops_only_at_a_fixed_point(self):
        # per-point stopping gives the bits of six full steps on every point
        nus = np.concatenate([np.arange(1.0, 20001.0), np.arange(2e5, 2.05e5)])
        target = np.pi * nus
        t = _initial_guess(nus)
        for _ in range(6):
            t = t - (theta(t) - target) / theta_deriv(t)
        resid = theta(t) - target
        cand = np.nextafter(t, np.where(resid > 0, -np.inf, np.inf))
        cand_r = np.abs(theta(cand) - target)
        better = cand_r < np.abs(resid)
        ts, rs = np.concatenate([_solve_many(1, 20000), _solve_many(200000, 204999)], axis=1)
        assert np.array_equal(ts, np.where(better, cand, t))
        assert np.array_equal(rs, np.where(better, cand_r, np.abs(resid)))

    def test_solve_returns_the_residual_of_its_point(self):
        # the residual the solve kept is |theta(t) - pi nu| recomputed, bit for bit
        nus = np.arange(1.0, 20001.0)
        ts, res = _solve_many(1, 20000)
        assert np.array_equal(res, np.abs(theta(ts) - np.pi * nus))
        for nu in (1, 2, 77, 10000, 20000):
            p = gram_point(nu)
            assert p.residual == abs(theta(p.t) - math.pi * nu)


class TestTable:
    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 600), (500, 2100), (1023, 1025),
                                        (200000, 201000), (_NU_MAX - 700, _NU_MAX)])
    def test_points_equal_one_solve_of_their_range(self, lo, hi):
        ts, res = _solve_many(lo, hi)
        pts = gram_points(lo, hi)
        assert [p.nu for p in pts] == list(range(lo, hi + 1))
        assert np.array_equal([p.t for p in pts], ts)
        assert np.array_equal([p.residual for p in pts], res)

    def test_the_residual_gate_reads_the_asked_indices_only(self, monkeypatch, clear_memos):
        # a failing residual in the block fails the query that asks for it alone
        solve = gram._solve_many

        def off_at_700(nu_lo, nu_hi):
            ts, res = solve(nu_lo, nu_hi)
            if nu_lo <= 700 <= nu_hi:
                res = res.copy()
                res[700 - nu_lo] = 1e-6
            return ts, res

        clear_memos()
        monkeypatch.setattr(gram, "_solve_many", off_at_700)
        try:
            assert len(gram_points(513, 699)) == 187
            assert len(gram_points(701, 1024)) == 324
            with pytest.raises(RootError, match="residual 1.000e-06 > tolerance at nu=700"):
                gram_points(600, 800)
        finally:
            clear_memos()

    def test_the_height_limit_is_checked_before_any_solve(self, clear_memos):
        clear_memos()
        with pytest.raises(DomainError, match=rf"Gram index {_NU_MAX + 1} lies above"):
            gram_points(_NU_MAX - 10, _NU_MAX + 1)
        assert gram._solved_block.cache_info().currsize == 0


class TestGramRange:
    def test_empty_below_first_point(self):
        pts = gram_range(7.0, 17.0)
        assert len(pts) == 0 and pts == []

    def test_count_formula_1000_2000(self):
        pts = gram_range(1000.0, 2000.0)
        expected = math.floor(theta(2000.0) / math.pi) - math.ceil(theta(1000.0) / math.pi) + 1
        assert len(pts) == expected
        # direct enumeration cross-check: all residuals small, all t in window
        assert all(1000.0 <= p.t < 2000.0 for p in pts)
        assert all(p.residual <= 1e-10 for p in pts)

    def test_index_contiguity(self):
        nus = [p.nu for p in gram_range(500.0, 800.0)]
        assert nus == list(range(nus[0], nus[0] + len(nus)))

    def test_half_open_partition_exact(self):
        a, b, c = 300.0, 450.0, 600.0
        left = gram_range(a, b)
        right = gram_range(b, c)
        whole = gram_range(a, c)
        assert [(p.nu, p.t) for p in left + right] == [(p.nu, p.t) for p in whole]

    @given(st.lists(st.floats(2.0 * math.pi, 5e3, exclude_min=True),
                    min_size=3, max_size=3, unique=True), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_half_open_partition_property(self, cuts, on_point):
        # on_point moves b onto a Gram point, which only [b, c) may hold
        a, b, c = sorted(cuts)
        whole = gram_range(a, c)
        if on_point and whole and whole[len(whole) // 2].t > a:
            b = whole[len(whole) // 2].t
        left = gram_range(a, b)
        right = gram_range(b, c)
        assert [(p.nu, p.t) for p in left + right] == [(p.nu, p.t) for p in whole]

    def test_end_one_ulp_past_a_gram_point_keeps_it(self):
        # one ulp past t_nu, theta(t) / pi still rounds below nu for 104 of
        # the first 6000 Gram points (nu = 14 is the first)
        for p in gram_points(1, 300):
            assert gram_range(p.t - 1.0, float(np.nextafter(p.t, np.inf)))[-1].nu == p.nu

    def test_monotone_in_nu(self):
        pts = gram_points(1, 3000)
        ts = np.array([p.t for p in pts])
        assert np.all(np.diff(ts) > 0)

    def test_rejects_bad_window(self):
        with pytest.raises(DomainError):
            gram_range(3.0, 10.0)


class TestCountEstimate:
    def test_mean_gap_matches_local_density(self):
        # mean Gram gap in [T, 2T] tracks 2pi/ln(T/2pi), the actual local
        # density scale (the crude ln T scale is ~25% off at T = 1e4)
        ts = [p.t for p in gram_range(1e4, 2e4)]
        mean_gap = (ts[-1] - ts[0]) / (len(ts) - 1)
        assert mean_gap == pytest.approx(TWO_PI / math.log(1.5e4 / TWO_PI), rel=0.10)

    def test_enumerated_count_tracks_density_scale(self):
        # enumeration vs the count scale with the local-density log; the
        # crude ln T scale misses by ~30% at this height
        count = len(gram_range(100.0, 1e4))
        local = 1e4 * math.log(1e4 / TWO_PI) / TWO_PI
        assert abs(count / local - 1.0) <= 0.15


class TestMaxHeight:
    def test_last_index_is_two_past_the_last_point_below(self):
        assert gram_point(_NU_MAX - 2).t <= MAX_HEIGHT < gram_point(_NU_MAX - 1).t
        with pytest.raises(DomainError, match=rf"Gram index {_NU_MAX + 1} lies above t = 1e\+06"):
            gram_point(_NU_MAX + 1)

    def test_windows_ending_at_max_height_are_admitted(self):
        assert len(gram_range(MAX_HEIGHT - 2.0, MAX_HEIGHT)) >= 1
        assert titchmarsh_sum(MAX_HEIGHT - 2.0, MAX_HEIGHT).terms >= 1

    def test_window_above_max_height_is_rejected(self):
        with pytest.raises(DomainError, match="lies above t = 1e"):
            gram_range(MAX_HEIGHT, MAX_HEIGHT + 2.0)


def test_csv_rows_format(tmp_path, capsys):
    assert main(["gram", "--from", "100", "--to", "120",
                 "--manifest", str(tmp_path / "m.jsonl")]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert all(len(r) == 3 for r in rows)
    nu, t, res = rows[0]
    assert int(nu) >= 1 and float(t) >= 100.0 and float(res) >= 0.0
