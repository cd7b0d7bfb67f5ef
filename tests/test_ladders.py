"""Reverse iterations: defining equation, ordering, partition properties."""

import math

import numpy as np
import pytest

from zetalab import (
    DomainError,
    EULER_GAMMA,
    RootError,
    hardy_z_many,
    ladder_chain,
    reverse_iterate,
    second_moment_critical,
)
from zetalab import ladders
from zetalab.cli import main
from zetalab.quad import _gl, _gl_inner_gap, critical_panel_width, gauss_panels


def _full_range_bracket(T):
    """The reverse step's bracket with Z at every node of [T, hi]: the
    crossing panel [a, b], the running sum `base` up to a, and the fsum of
    |GL8 - inner-six-node rule| over the panels below a."""
    target = (1.0 - EULER_GAMMA) * T
    gap0 = target / math.log(T)
    width = critical_panel_width(T + 3.0 * gap0)
    hi = T + 2.2 * gap0
    while True:
        nodes, weights = gauss_panels(T, hi, width, order=8)
        z = hardy_z_many(nodes)
        wz2 = (z * z * weights).reshape(-1, 8)
        per_panel = wz2.sum(axis=1)
        cum = np.concatenate([[0.0], np.cumsum(per_panel)])
        if cum[-1] >= target:
            break
        hi = T + (hi - T) * 1.6
    edges = np.linspace(T, hi, len(per_panel) + 1)
    i = int(np.searchsorted(cum, target)) - 1
    err = math.fsum(np.abs((wz2 * _gl_inner_gap(8)).sum(axis=1))[:i].tolist())
    return float(cum[i]), float(edges[i]), float(edges[i + 1]), err


class TestReverseIterate:
    def test_ordering(self):
        for T in [100.0, 1000.0, 10000.0]:
            assert reverse_iterate(T) > T

    def test_defining_residual(self):
        T = 1000.0
        U = reverse_iterate(T)
        got = second_moment_critical(T, U).value
        assert abs(got - (1.0 - EULER_GAMMA) * T) <= 1e-6 * T

    def test_gap_scale(self):
        # gap tracks (1-gamma) T / ln T to leading order
        T = 1e4
        U = reverse_iterate(T)
        pred = (1.0 - EULER_GAMMA) * T / math.log(T)
        assert 0.8 <= (U - T) / pred <= 1.2

    def test_monotone_map(self):
        pairs = [(150.0, 300.0), (1000.0, 1500.0), (5000.0, 5100.0)]
        for a, b in pairs:
            assert reverse_iterate(a) < reverse_iterate(b)

    def test_rejects_small_T(self):
        with pytest.raises(DomainError):
            reverse_iterate(50.0)

    @pytest.mark.parametrize("T", [100.0, 1e3, 1e4, 10494.420514083624, 2e4])
    def test_bracket_equals_the_full_range_reference(self, T):
        target = (1.0 - EULER_GAMMA) * T
        assert ladders._bracket(T, target) == _full_range_bracket(T)

    def test_inner_rule_weights(self):
        # the six inner GL8 nodes carry the positive interpolatory weights
        # 0.492, 0.016, 0.492 mirrored, and the rule is exact to degree 5
        x, w = _gl(8)
        v = (1.0 - _gl_inner_gap(8)) * w
        assert v[0] == v[-1] == 0.0
        assert np.allclose(v[1:4], [0.49203195, 0.01632537, 0.49164268], atol=1e-8)
        for k in range(6):
            assert (v * x ** k).sum() == pytest.approx((1 + (-1) ** k) / (k + 1), abs=1e-14)

    def test_bracket_stops_at_its_crossing(self, monkeypatch):
        # T^1 lies near T + 1.07 gaps; the full [T, T + 2.2 gaps] range
        # holds 80,792 nodes, the blocks up to the crossing 40,960
        points = []
        z = ladders.hardy_z_many

        def counting_z(t):
            points.append(len(t))
            return z(t)

        monkeypatch.setattr(ladders, "hardy_z_many", counting_z)
        ladders._reverse_iterate.cache_clear()
        reverse_iterate(1e4)
        assert sum(points) <= 45_056


class TestBracketGrowth:
    """Z patched inside `ladders` only, so the step's window memo is
    emptied before and after each test."""

    @pytest.fixture(autouse=True)
    def fresh_memos(self, clear_memos):
        clear_memos()
        yield
        clear_memos()

    @staticmethod
    def count_tries(monkeypatch):
        tries = []
        panels = ladders.gauss_panels

        def counting_panels(*args, **kw):
            tries.append(1)
            return panels(*args, **kw)

        monkeypatch.setattr(ladders, "gauss_panels", counting_panels)
        return tries

    def test_grows_the_bracket_until_the_target_is_reached(self, monkeypatch):
        # with Z halved the step needs 4 (1-gamma) T of the true integral,
        # about 4 gaps: beyond 2.2 and 3.52 gaps, within 5.63
        tries = self.count_tries(monkeypatch)
        z = ladders.hardy_z_many
        monkeypatch.setattr(ladders, "hardy_z_many", lambda t: 0.5 * z(t))
        T = 1000.0
        U = reverse_iterate(T)
        assert len(tries) == 3
        assert second_moment_critical(T, U).value == pytest.approx(
            4.0 * (1.0 - EULER_GAMMA) * T, rel=1e-9)

    def test_gives_up_after_eight_tries(self, monkeypatch):
        tries = self.count_tries(monkeypatch)
        monkeypatch.setattr(ladders, "hardy_z_many", np.zeros_like)
        message = r"^failed to bracket the reverse iterate of T=1000\.0$"
        with pytest.raises(RootError, match=message):
            reverse_iterate(1000.0)
        assert len(tries) == 8

    def test_cli_exits_3_and_writes_nothing(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(ladders, "hardy_z_many", np.zeros_like)
        out = tmp_path / "l.csv"
        code = main(["ladder", "--T", "1000", "--out", str(out),
                     "--manifest", str(tmp_path / "manifest.jsonl")])
        assert code == 3 and not out.exists()
        assert capsys.readouterr() == (
            "", "computation error: failed to bracket the reverse iterate of T=1000.0\n")


class TestLadderChain:
    def test_k1_matches_single_step(self):
        T = 500.0
        chain = ladder_chain(T, 1)
        assert chain.iterates == [reverse_iterate(T)]

    def test_strict_ordering_k5(self):
        T = 1000.0
        chain = ladder_chain(T, 5)
        hs = [T] + chain.iterates
        assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_residuals_small(self):
        T = 1000.0
        chain = ladder_chain(T, 3)
        hs = [T] + chain.iterates
        for r, resid in enumerate(chain.residuals):
            assert resid <= 1e-6 * hs[r]

    def test_closeness_ratio_shrinks_with_height(self):
        # T^3/T stays modest and decreases as the base grows
        r1 = ladder_chain(1000.0, 3).iterates[-1] / 1000.0
        r2 = ladder_chain(10000.0, 3).iterates[-1] / 10000.0
        assert r1 <= 1.3
        assert r2 < r1

    def test_closeness_k5_at_1e4(self):
        assert ladder_chain(1e4, 5).iterates[-1] / 1e4 <= 1.3

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            ladder_chain(1000.0, 0)


class TestPartition:
    def test_telescoping_exact(self):
        T = 1000.0
        chain = ladder_chain(T, 4)
        hs = [T] + chain.iterates
        gaps = [b - a for a, b in zip(hs, hs[1:])]
        assert math.fsum(gaps) == pytest.approx(hs[-1] - hs[0], abs=1e-9 * hs[-1])

    def test_integral_partition(self):
        T = 1000.0
        chain = ladder_chain(T, 3)
        hs = [T] + chain.iterates
        whole = second_moment_critical(hs[0], hs[-1]).value
        parts = math.fsum(
            second_moment_critical(a, b).value for a, b in zip(hs, hs[1:])
        )
        assert parts == pytest.approx(whole, rel=1e-9)

    def test_slices_are_the_slice_integrals(self):
        T = 1000.0
        chain = ladder_chain(T, 3)
        hs = [T] + chain.iterates
        for r, value in enumerate(chain.slices):
            assert value == second_moment_critical(hs[r], hs[r + 1]).value

    def test_gap_ratios_near_one(self):
        T = 1e4
        hs = [T] + ladder_chain(T, 4).iterates
        gaps = [b - a for a, b in zip(hs, hs[1:])]
        assert all(0.9 <= b / a <= 1.1 for a, b in zip(gaps, gaps[1:]))

    def test_integral_ratios_track_height_ratios(self):
        T = 1e4
        chain = ladder_chain(T, 3)
        hs = [T] + chain.iterates
        for r, (a, b) in enumerate(zip(chain.slices, chain.slices[1:])):
            assert b / a == pytest.approx(hs[r + 1] / hs[r], rel=1e-5)

    def test_gap_prediction_band(self):
        T = 1e4
        hs = [T] + ladder_chain(T, 2).iterates
        for a, b in zip(hs, hs[1:]):
            assert 0.8 <= (b - a) / ((1.0 - EULER_GAMMA) * a / math.log(a)) <= 1.2
