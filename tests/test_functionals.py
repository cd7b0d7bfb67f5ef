"""Quotient formulas and the cross-bred functionals A, B, C."""

import math

import numpy as np
import pytest

from zetalab import (
    CacheMissError,
    DomainError,
    PrecisionError,
    chain_compare,
    estimate_cbar,
    functional_approximant,
    hardy_z_many,
    quotient_s1,
    quotient_zeta,
    second_moment_critical,
    second_moment_sigma,
    reverse_iterate,
    substitution_constant,
)
from zetalab import config, functionals, ladders, moments, sums
from zetalab.quad import panel_sums

ZETA2 = math.pi ** 2 / 6.0
ZETA10 = 1.0009945751278180


class TestQuotients:
    def test_positive(self):
        q = quotient_zeta(1.0, 1000.0)
        assert q > 0.0

    def test_zeta_quotient_band_at_1e3(self):
        # quotient * zeta(2) tracks ln T up to the O(1) term
        q = quotient_zeta(1.0, 1000.0)
        assert 0.8 <= q * ZETA2 / math.log(1000.0) <= 1.2

    def test_sigma5_two_path_consistency(self):
        # at sigma = 5 the denominator per-unit is zeta(10) to within its
        # fluctuation, so the quotient matches the direct two-path value
        T = 1000.0
        U = reverse_iterate(T)
        q = quotient_zeta(5.0, T)
        num = second_moment_critical(T, U).value
        den = second_moment_sigma(5.0, T, U).value
        assert q == pytest.approx(num / den, rel=1e-12)
        assert den / (U - T) == pytest.approx(ZETA10, rel=0.01)

    def test_s1_quotient_positive_and_scaled(self):
        q = quotient_s1(1, 2000.0)
        est = estimate_cbar(1, 2000.0, 200.0)
        assert q > 0.0
        assert 0.5 <= q * est.cbar / math.log(2000.0) <= 1.5

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            quotient_zeta(0.5, 1000.0)
        with pytest.raises(DomainError):
            quotient_zeta(1.0, 50.0)
        with pytest.raises(DomainError):
            quotient_s1(0, 1000.0)


class TestSubstitutionConstants:
    def test_kind_a_value(self):
        K = substitution_constant("A", sigma=1.0)
        assert K == pytest.approx(4.0 * math.pi ** 5 / (3.0 * ZETA2 ** 5), rel=1e-12)

    def test_kind_c_value(self):
        K = substitution_constant("C", sigma=1.0)
        assert K == pytest.approx(4.0 * math.pi ** 3 / ZETA2 ** 5, rel=1e-12)

    def test_kind_b_requires_cbar(self):
        with pytest.raises(CacheMissError):
            substitution_constant("B")


class TestFunctionalApproximant:
    def test_scaling_identity_exact(self):
        # value(x, tau) = x * value(1, x*tau) is structural: both calls see
        # bitwise-identical windows because T = K * (x * tau)
        rng = np.random.default_rng(9)
        for kind in ("A", "C"):
            for _ in range(3):
                x = 0.5 + 1.5 * float(rng.random())
                K = substitution_constant(kind, sigma=1.0)
                tau = (150.0 + 400.0 * float(rng.random())) / (K * x)
                v_xy = functional_approximant(kind, x, tau, sigma=1.0)
                v_1 = functional_approximant(kind, 1.0, x * tau, sigma=1.0)
                assert abs(v_xy.value - x * v_1.value) <= 1e-12 * max(1.0, abs(v_xy.value))

    def test_scaling_identity_kind_b_fixed_cbar(self):
        cb = estimate_cbar(1, 2000.0, 200.0)
        K = substitution_constant("B", cbar=cb)
        x = 1.7
        tau = 400.0 / (K * x)
        v_xy = functional_approximant("B", x, tau, l=1, cbar=cb)
        v_1 = functional_approximant("B", 1.0, x * tau, l=1, cbar=cb)
        assert abs(v_xy.value - x * v_1.value) <= 1e-12 * max(1.0, abs(v_xy.value))

    def test_implied_T_floor(self):
        with pytest.raises(DomainError):
            functional_approximant("A", 1.0, 1e-6, sigma=1.0)

    def test_kind_b_needs_cache(self):
        with pytest.raises(CacheMissError):
            functional_approximant("B", 1.0, 100.0, l=1)

    def test_kind_b_l_mismatch_rejected(self):
        cb = estimate_cbar(1, 2000.0, 200.0)
        with pytest.raises(DomainError):
            functional_approximant("B", 1.0, 1.0, l=2, cbar=cb)

    def test_value_sanity_kind_a(self):
        # r_pair < 1 and (ln T / L_eff)^5 > 1 nearly cancel; the value ends
        # an O(1/ln T) distance from x
        K = substitution_constant("A", sigma=1.0)
        v = functional_approximant("A", 1.0, 2000.0 / K, sigma=1.0)
        assert 0.4 <= v.value <= 1.8
        assert v.rel_err == abs(v.value - 1.0)

    def test_windows_reuse_the_ladder_step(self, clear_memos):
        # the call's two windows find its T^1 in the reverse_iterate memo
        clear_memos()
        K = substitution_constant("A", sigma=1.0)
        functional_approximant("A", 1.0, 300.0 / K, sigma=1.0)
        info = ladders._reverse_iterate.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_trace_fields(self):
        K = substitution_constant("A", sigma=1.0)
        v = functional_approximant("A", 2.0, 500.0 / (K * 2.0), sigma=1.0)
        assert v.T == pytest.approx(500.0, rel=1e-12)
        assert v.T1 > v.T
        assert v.x == 2.0


class TestCriticalWindow:
    """The critical-line window of a functional is the integral of Z^2 that
    its ladder step solved for, not a second integration of [T, T^1]."""

    @pytest.mark.parametrize("T", [1e3, 2.5e3, 1e4, 5e4])
    def test_window_matches_independent_integrations(self, T):
        U, window, err = ladders._reverse_iterate(T)
        assert functionals._crit_window(T) == window
        est = second_moment_critical(T, reverse_iterate(T))
        assert abs(window - est.value) <= est.quad_error
        # GL32 on panels 0.05 wide
        edges = np.linspace(T, U, int(math.ceil((U - T) / 0.05)) + 1)
        ref = math.fsum(panel_sums(lambda t: hardy_z_many(t) ** 2,
                                   edges[:-1], edges[1:], 32).tolist())
        assert abs(window - ref) <= err

    def test_window_costs_no_second_integration(self, monkeypatch, clear_memos):
        # kind A at T = 1e4: 41,443 Z points for the ladder step and 12,350
        # for the pair sum; integrating the window again took 118,680 more
        points = {}
        for mod in (ladders, moments, sums):
            def counting_z(t, z=mod.hardy_z_many, name=mod.__name__):
                points[name] = points.get(name, 0) + len(t)
                return z(t)

            monkeypatch.setattr(mod, "hardy_z_many", counting_z)
        clear_memos()
        K = substitution_constant("A", sigma=1.0)
        functional_approximant("A", 1.0, 1e4 / K, sigma=1.0)
        assert "zetalab.moments" not in points
        assert sum(points.values()) <= 60_000

    def test_evaluation_gate(self, monkeypatch):
        # Z's truncation bound at T^1 against EVAL_TOL, as in second_moment_critical
        monkeypatch.setattr(config, "EVAL_TOL", 1e-18)
        with pytest.raises(PrecisionError, match="Z on"):
            quotient_zeta(1.0, 1e3)

    def test_quadrature_gate(self, monkeypatch):
        monkeypatch.setattr(functionals, "_reverse_iterate", lambda T: (T + 1.0, 1.0, 0.02))
        with pytest.raises(PrecisionError, match="critical2"):
            functionals._crit_window(1e3)


class TestChainCompare:
    def test_common_height_and_triangle_gate(self):
        cb = estimate_cbar(1, 2000.0, 200.0)
        kA = substitution_constant("A", sigma=1.0)
        out = chain_compare(1.0, 1.0, 1, 600.0 / kA, cb)
        assert out["A"].T == pytest.approx(600.0, rel=1e-12)
        assert list(out) == ["A", "B", "C"]

    @pytest.mark.parametrize("x, T", [(1.0, 600.0), (0.37, 1500.0), (2.9, 2500.0)])
    def test_equals_direct_calls_at_the_taus_it_derives(self, x, T):
        cb = estimate_cbar(1, 2000.0, 200.0)
        tau = T / (substitution_constant("A", sigma=1.0) * x)
        out = chain_compare(x, 1.0, 1, tau, cb)
        # A's own T is the common implied height, bitwise
        T_ref = substitution_constant("A", sigma=1.0) * (x * tau)
        assert out["A"].T == T_ref
        tau_b = T_ref / (substitution_constant("B", cbar=cb) * x)
        tau_c = T_ref / (substitution_constant("C", sigma=1.0) * x)
        assert out == {
            "A": functional_approximant("A", x, tau, sigma=1.0),
            "B": functional_approximant("B", x, tau_b, l=1, cbar=cb),
            "C": functional_approximant("C", x, tau_c, sigma=1.0),
        }
        for kind in "BC":
            assert out[kind].T == pytest.approx(T_ref, rel=1e-14)

    def test_rejects_tiny_tau(self):
        cb = estimate_cbar(1, 2000.0, 200.0)
        with pytest.raises(DomainError):
            chain_compare(1.0, 1.0, 1, 1e-9, cb)
