"""Interval moments, the Selberg-moment constant, and the constants cache."""

import importlib
import math
import threading
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from zetalab import (
    ConstantsCache,
    DomainError,
    EULER_GAMMA,
    PoleError,
    estimate_cbar,
    hardy_z_many,
    reverse_iterate,
    s1_moment,
    second_moment_critical,
    second_moment_sigma,
    shared_s1_evaluator,
)
from zetalab.moments import _split_gaps
from zetalab.quad import (
    _GK_X,
    _nodes,
    critical_panel_width,
    gauss_panels,
    integrate_panels,
    kronrod_sums,
    panel_sums,
    sigma_panel_runs,
)
from zetalab.zeta import _BLOCK, zeta_abs2_line

zeta_module = importlib.import_module("zetalab.zeta")  # `zetalab.zeta` is also a function

ZETA2 = math.pi ** 2 / 6.0
ZETA3 = 1.2020569031595943

# The quartic P4 of the fourth moment's full main term,
# int_0^T |zeta(1/2+it)|^4 dt = int_0^T P4(ln(t/2pi)) dt + O(T^(2/3+eps)),
# highest power first (Conrey, Farmer, Keating, Rubinstein and Snaith,
# "Integral moments of L-functions", Proc. LMS 91, 2005)
P4 = (0.0506605918, 0.6988698849, 2.4259621988, 3.2279079649, 1.3124243860)


class TestCritical2:
    def test_degenerate(self):
        est = second_moment_critical(100.0, 100.0)
        assert est.value == 0.0

    def test_additivity(self):
        a = second_moment_critical(0.0, 100.0).value
        b = second_moment_critical(100.0, 200.0).value
        whole = second_moment_critical(0.0, 200.0).value
        assert whole == pytest.approx(a + b, rel=1e-6)

    def test_hardy_littlewood_scale(self):
        # classical asymptotic T ln T + (2 gamma - 1 - ln 2pi) T as yardstick
        T = 1e4
        est = second_moment_critical(0.0, T)
        asym = T * math.log(T) + (2 * EULER_GAMMA - 1.0 - math.log(2 * math.pi)) * T
        assert est.value == pytest.approx(asym, rel=0.01)
        assert est.quad_error < 0.01 * est.value

    def test_resolution_stability(self):
        # halving the panel width moves the value by far less than 0.5%
        est1 = second_moment_critical(1000.0, 1100.0)
        ref, _ = integrate_panels(lambda t: hardy_z_many(t) ** 2, 1000.0, 1100.0, width=0.05)
        assert abs(ref - est1.value) <= 5e-3 * est1.value

    def test_rejects_reversed(self):
        with pytest.raises(DomainError):
            second_moment_critical(10.0, 5.0)


class TestFourthMoment:
    def test_p4_leading_coefficient(self):
        assert P4[0] == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-9)

    @pytest.mark.parametrize("T", [1e3, 5e3])
    def test_z4_integral_matches_the_full_main_term(self, T):
        # Z's fourth moment against theory, without mpmath's Z
        z4, err = integrate_panels(lambda t: hardy_z_many(t) ** 4, T, 2.0 * T,
                                   width=critical_panel_width(2.0 * T))
        main, _ = quad(lambda t: np.polyval(P4, math.log(t / (2.0 * math.pi))), T, 2.0 * T)
        assert err <= 1e-9 * z4
        assert abs(z4 / main - 1.0) <= 0.01


class TestSigma2:
    def test_per_unit_approaches_zeta2(self):
        est = second_moment_sigma(1.0, 1e3, 6e3)
        assert est.value / 5e3 == pytest.approx(ZETA2, rel=0.05)

    def test_sigma3_short_window_bounds(self):
        est = second_moment_sigma(3.0, 1e3, 1e3 + 50.0)
        assert 1.0 <= est.value / 50.0 <= ZETA3 ** 2

    def test_monotone_accumulation(self):
        a = second_moment_sigma(1.0, 500.0, 700.0).value
        b = second_moment_sigma(1.0, 500.0, 900.0).value
        assert b >= a

    def test_rejects_sigma_near_half(self):
        with pytest.raises(DomainError):
            second_moment_sigma(0.505, 100.0, 200.0)

    def test_window_at_the_pole_diverges(self):
        with pytest.raises(PoleError):
            second_moment_sigma(1.0, 0.0, 2.0)

    @pytest.mark.parametrize("t_lo,t_hi", [(1e4, 10494.42), (0.5, 300.0)])
    def test_one_em_row_per_panel(self, monkeypatch, t_lo, t_hi):
        built = []
        em_rows = zeta_module._em_rows

        def counting_rows(sigmas, ts, N):
            built.append((float(sigmas[0]), len(ts)))
            return em_rows(sigmas, ts, N)

        monkeypatch.setattr(zeta_module, "_em_rows", counting_rows)
        second_moment_sigma(1.0, t_lo, t_hi)
        runs = sigma_panel_runs(1.0, t_lo, t_hi)
        # one row per panel, plus one 21-node table per block of a run
        assert sum(n for s, n in built if s == 1.0) == sum(len(m) for m, _ in runs)
        tables = [n for s, n in built if s == 0.0]
        assert tables == [21] * sum(-(-len(m) // (_BLOCK // 21)) for m, _ in runs)


def _mp_sigma_moment(sigma, edges, order=24):
    """|zeta(sigma+it)|^2 integrated with fixed GL(order) nodes on each
    panel of `edges` and mp.zeta at 20 digits."""
    x, w = leggauss(order)
    total = mp.mpf(0)
    with mp.workdps(20):
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = mp.mpf(0.5 * (a + b)), mp.mpf(0.5 * (b - a))
            for xi, wi in zip(x, w):
                z = mp.zeta(mp.mpc(sigma, mid + half * mp.mpf(xi)))
                total += mp.mpf(wi) * half * abs(z) ** 2
    return float(total)


class TestSigma2Oracle:
    @pytest.mark.parametrize(
        "sigma,edges",
        [
            (1.0, np.linspace(1000.0, 1010.0, 3)),
            (0.75, np.array([1000.0, 1005.0])),
            # graded toward the pole at t = 0
            (1.0, np.array([0.1, 0.2, 0.4, 0.8, 1.6, 3.0])),
            # pole at t = 0.4i, panels no wider than their distance to it
            (0.6, np.linspace(0.0, 4.0, 11)),
        ],
    )
    def test_matches_mpmath(self, sigma, edges):
        ref = _mp_sigma_moment(sigma, edges)
        est = second_moment_sigma(sigma, float(edges[0]), float(edges[-1]))
        assert est.value == pytest.approx(ref, rel=1e-12)
        assert abs(est.value - ref) <= est.quad_error + 1e-14 * est.value

    @pytest.mark.parametrize("sigma", [0.51, 1.0, 2.0])
    def test_matches_fine_gauss_legendre(self, sigma):
        # GL32 on 0.0625-wide panels, far finer than the GK21 panels
        for T in (1e3, 1e4, 3e4):
            nodes, weights = gauss_panels(T, T + 10.0, 0.0625, 32)
            ref = math.fsum((zeta_abs2_line(sigma, nodes) * weights).tolist())
            assert second_moment_sigma(sigma, T, T + 10.0).value == pytest.approx(ref, rel=1e-12)


class TestS1Moment:
    def test_empty(self):
        assert s1_moment(1, 100.0, 100.0).value == 0.0

    @staticmethod
    def _split_gaps_loop(edges):
        """The loop `_split_gaps` replaced, kept as its bitwise reference."""
        refined = [edges[0]]
        for e in edges[1:]:
            prev = refined[-1]
            n_extra = int((e - prev) // 2.0)
            for j in range(1, n_extra + 1):
                refined.append(prev + (e - prev) * j / (n_extra + 1))
            refined.append(e)
        return np.array(refined)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e4), min_size=2, max_size=30, unique=True))
    def test_split_gaps_keeps_knots_and_caps_panels(self, points):
        edges = np.array(sorted(points))
        refined = _split_gaps(edges)
        assert refined.tobytes() == self._split_gaps_loop(edges).tobytes()
        assert np.isin(edges, refined).all()
        assert (np.diff(refined) > 0).all()
        # d/(floor(d/2)+1) < 2 exactly; the rounded split points may add a
        # few ulp (a gap of 141.99999999999818 gives one panel of 2.0)
        assert (np.diff(refined) < 2.0 + 4 * np.spacing(edges[-1])).all()

    def test_power_monotonicity_where_small(self):
        # on a window where max|S1| <= 1 (checked, not assumed), x^4 <= x^2;
        # |S1| swings past 1 regularly, so locate a qualifying stretch first
        ev = shared_s1_evaluator()
        ev.ensure(200.0)
        grid = np.linspace(20.0, 200.0, 4000)
        small = np.abs(ev.value_many(grid)) <= 0.98
        runs = np.diff(np.concatenate([[0], small.view(np.int8), [0]]))
        starts, ends = np.nonzero(runs == 1)[0], np.nonzero(runs == -1)[0]
        j = int(np.argmax(ends - starts))
        lo, hi = float(grid[starts[j]]), float(grid[ends[j] - 1])
        assert hi - lo > 1.0, "no usable window found"
        probe = np.abs(ev.value_many(np.linspace(lo, hi, 2000)))
        assert probe.max() <= 1.0
        m1 = s1_moment(1, lo, hi).value
        m2 = s1_moment(2, lo, hi).value
        assert m2 <= m1

    def test_ten_x_resolution_oracle(self):
        # spec-style self-oracle: 10x finer panels via direct fine Gauss mesh
        from numpy.polynomial.legendre import leggauss

        lo, hi = 1000.0, 2000.0
        base = s1_moment(1, lo, hi)
        ev = shared_s1_evaluator()
        zs = ev.zeros_in(lo, hi)
        edges = np.concatenate([[lo], zs, [hi]])
        fine_edges = np.concatenate(
            [np.linspace(a, b, 11)[:-1] for a, b in zip(edges[:-1], edges[1:])] + [[hi]]
        )
        x, w = leggauss(10)
        mid = 0.5 * (fine_edges[:-1] + fine_edges[1:])
        half = 0.5 * (fine_edges[1:] - fine_edges[:-1])
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        vals = ev.value_many(nodes) ** 2
        fine = float(np.sum((vals.reshape(len(mid), 10) @ w) * half))
        assert base.value == pytest.approx(fine, rel=0.02)

    @pytest.mark.parametrize("t_lo, t_hi", [(150.0, 190.0), (1000.0, 1050.0), (3000.0, 3025.0)])
    def test_matches_gl20_on_eighths_of_its_panels(self, t_lo, t_hi):
        # s1_moment raises the table ceiling to t_hi at most, so the
        # reference reads the same S1 tables
        est = s1_moment(1, t_lo, t_hi)
        ev = shared_s1_evaluator()
        edges = _split_gaps(np.concatenate([[t_lo], ev.zeros_in(t_lo, t_hi), [t_hi]]))
        fine = edges[:-1, None] + np.diff(edges)[:, None] * np.arange(8) / 8.0
        fine = np.append(fine.ravel(), t_hi)
        ref = math.fsum(panel_sums(lambda t: ev.value_many(t) ** 2,
                                   fine[:-1], fine[1:], 20).tolist())
        assert 0.0 < est.quad_error < 1e-6 * est.value
        assert abs(est.value - ref) <= est.quad_error

    def test_additivity(self):
        a = s1_moment(1, 500.0, 600.0).value
        b = s1_moment(1, 600.0, 700.0).value
        whole = s1_moment(1, 500.0, 700.0).value
        assert whole == pytest.approx(a + b, rel=1e-9)


class TestCbar:
    def test_positivity_and_scaling(self):
        est = estimate_cbar(1, 2000.0, 200.0)
        assert est.cbar > 0
        m = s1_moment(1, 2000.0, 2200.0).value
        assert est.cbar == pytest.approx(m / 200.0, rel=1e-12)

    def test_spread_reads_the_whole_windows_tables(self, monkeypatch):
        # from a fresh evaluator, so a quarter that raised the table
        # ceiling mid-fit would leave the earlier quarters on older tables
        from zetalab import argz

        monkeypatch.setattr(argz, "_SHARED", argz.S1Evaluator())
        est = estimate_cbar(1, 2000.0, 200.0)
        assert est.cbar == s1_moment(1, 2000.0, 2200.0).value / 200.0
        quarters = [s1_moment(1, 2000.0 + 50.0 * j, 2050.0 + 50.0 * j).value for j in range(4)]
        assert est.spread == max(abs(q / 50.0 - est.cbar) for q in quarters)

    def test_fit_samples_21_nodes_per_panel(self, monkeypatch):
        # one value_many call of 21 GK nodes per distinct zero-gap panel of
        # the whole window and the four quarter windows
        ev = shared_s1_evaluator()
        ev.ensure(2200.0)
        panels = [_split_gaps(np.concatenate([[a], ev.zeros_in(a, b), [b]]))
                  for a, b in ((2000.0, 2200.0), (2000.0, 2050.0), (2050.0, 2100.0),
                               (2100.0, 2150.0), (2150.0, 2200.0))]
        distinct = {p for e in panels for p in zip(e[:-1].tolist(), e[1:].tolist())}
        assert len(panels[0]) - 1 < len(distinct) < sum(len(e) - 1 for e in panels)
        calls = []
        value_many = type(ev).value_many

        def counting(self, t):
            calls.append(np.size(t))
            return value_many(self, t)

        monkeypatch.setattr(type(ev), "value_many", counting)
        estimate_cbar(1, 2000.0, 200.0)
        assert calls == [21 * len(distinct)]

    @staticmethod
    def _lone_window(l, t_lo, t_hi):
        """s1_moment as computed before windows shared panels: the window's
        own panels, and their nodes in a value_many call of their own."""
        ev = shared_s1_evaluator()
        edges = _split_gaps(np.concatenate([[t_lo], ev.zeros_in(t_lo, t_hi), [t_hi]]))
        nodes, half = _nodes(edges[:-1], edges[1:], _GK_X)
        vals = np.abs(ev.value_many(nodes.ravel()).reshape(nodes.shape)) ** (2 * l)
        return kronrod_sums(vals, half)

    @pytest.mark.parametrize("l, T, H", [(1, 2000.0, 200.0), (2, 1500.0, 300.0)])
    def test_fit_windows_equal_separate_moments(self, monkeypatch, l, T, H):
        # from a fresh evaluator, whose tables the whole window prepares
        from zetalab import argz, moments

        monkeypatch.setattr(argz, "_SHARED", argz.S1Evaluator())
        fits = []
        s1_moments = moments._s1_moments

        def recording(l, windows):
            fits.append((windows, s1_moments(l, windows)))
            return fits[-1][1]

        monkeypatch.setattr(moments, "_s1_moments", recording)
        est = estimate_cbar(l, T, H)
        ((windows, got),) = fits
        assert windows == [(T, T + H)] + [(T + j * H / 4.0, T + (j + 1) * H / 4.0)
                                          for j in range(4)]
        zeros = shared_s1_evaluator().zeros_in(T, T + H)
        for _, q in windows[1:4]:  # each quarter boundary splits a zero gap
            assert zeros[0] < q < zeros[-1] and q not in zeros
        for (a, b), m in zip(windows, got):
            assert (m.value, m.quad_error) == self._lone_window(l, a, b)
            assert m == s1_moment(l, a, b)
        assert est.cbar == got[0].value / H

    def test_window_constraint(self):
        with pytest.raises(DomainError):
            estimate_cbar(1, 1e4, 50.0)  # H < T^0.6
        with pytest.raises(DomainError):
            estimate_cbar(1, 1e3, 2e3)  # H > T

    def test_split_consistency(self):
        # full-window estimate equals the H-weighted mean of sub-windows
        est = estimate_cbar(1, 3000.0, 400.0)
        parts = [
            s1_moment(1, 3000.0 + j * 100.0, 3000.0 + (j + 1) * 100.0).value
            for j in range(4)
        ]
        assert est.cbar == pytest.approx(sum(parts) / 400.0, rel=1e-9)

    def test_cache_roundtrip(self, tmp_path):
        cache = ConstantsCache(str(tmp_path / "c.json"))
        est = estimate_cbar(1, 2000.0, 200.0)
        cache.put(est)
        back = cache.get(1, 2000.0, 200.0)
        assert back is not None
        assert back.cbar == est.cbar and back.spread == est.spread
        assert cache.keys() == [est.cache_key]

    def test_fit_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ZLAB_CACHE_DIR", raising=False)
        estimate_cbar(1, 2000.0, 200.0)
        assert list(tmp_path.iterdir()) == []

    def test_key_roundtrip_at_non_integer_heights(self, tmp_path):
        # put (through cache_key) and get (from l, T, H) build one key
        from zetalab.moments import CbarEstimate

        cache = ConstantsCache(str(tmp_path / "c.json"))
        est = CbarEstimate(l=2, T=1234.5678901234, H=98.76543210987, cbar=0.7, spread=0.01)
        assert cache.put(est) == "cbar/l=2/T=1234.5678901234/H=98.76543210987"
        assert cache.get(2, 1234.5678901234, 98.76543210987) == est
        assert cache.keys() == [est.cache_key]

    def test_interrupted_put_keeps_old_file(self, tmp_path, monkeypatch):
        from zetalab import moments

        cache = ConstantsCache(str(tmp_path / "c.json"))
        first = moments.CbarEstimate(l=1, T=2000.0, H=200.0, cbar=0.75, spread=0.01)
        cache.put(first)
        before = (tmp_path / "c.json").read_bytes()

        def dump_then_fail(obj, f, **kw):
            f.write('{"cbar/l=1/T=3000')
            raise KeyboardInterrupt

        monkeypatch.setattr(moments.json, "dump", dump_then_fail)
        second = moments.CbarEstimate(l=1, T=3000.0, H=300.0, cbar=0.74, spread=0.01)
        with pytest.raises(KeyboardInterrupt):
            cache.put(second)
        monkeypatch.undo()
        assert (tmp_path / "c.json").read_bytes() == before
        assert cache.keys() == [first.cache_key]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "c.json.lock"]

    def test_concurrent_puts_keep_every_key(self, tmp_path, monkeypatch):
        from zetalab import moments

        # a slow read widens the window in which an unlocked put would
        # overwrite the other writers' keys
        load = moments.ConstantsCache._load

        def slow_load(self):
            data = load(self)
            time.sleep(0.01)
            return data

        monkeypatch.setattr(moments.ConstantsCache, "_load", slow_load)
        path = str(tmp_path / "c.json")
        ests = [moments.CbarEstimate(l=1, T=1000.0 + j, H=100.0, cbar=0.75, spread=0.01)
                for j in range(8)]
        start = threading.Barrier(len(ests))

        def put(est):
            start.wait(timeout=30)
            ConstantsCache(path).put(est)

        threads = [threading.Thread(target=put, args=(est,)) for est in ests]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert ConstantsCache(path).keys() == sorted(est.cache_key for est in ests)

    def test_two_window_stability(self):
        # nearby windows must agree within the slow O(1/ln T) drift
        a = estimate_cbar(1, 1e4, 1e3)
        b = estimate_cbar(1, 2e4, 2e3)
        assert abs(a.cbar / b.cbar - 1.0) <= 0.25

    def test_ladder_window_consistency(self):
        # the |S1|^2 integral over [T, T^1] matches cbar * gap within a few
        # spreads (window-mean drift between nearby windows)
        T = 2000.0
        est = estimate_cbar(1, T, 200.0)
        U = reverse_iterate(T)
        den = s1_moment(1, T, U).value
        assert den == pytest.approx(est.cbar * (U - T), rel=0.15)
