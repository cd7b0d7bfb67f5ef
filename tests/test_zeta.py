"""Evaluator tests: theta, zeta, Hardy Z against an arbitrary-precision oracle."""

import importlib
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from zetalab import (
    DomainError,
    PoleError,
    PrecisionConfig,
    PrecisionError,
    hardy_z,
    hardy_z_many,
    theta,
    theta_deriv,
    zeta,
)
from zetalab.cli import main
from zetalab.zeta import (
    RS_CROSSOVER,
    _em_main_sum,
    _rs_correction,
    _zeta_em_block,
    em_error_bound,
    _PSI_CENTER,
    _psi_deriv_coeffs,
    em_roundoff_bound,
    rs_error_bound,
    zeta_abs2_line,
    zeta_abs2_panels,
)
from zetalab.quad import _GK_X, sigma_panel_runs

zeta_module = importlib.import_module("zetalab.zeta")  # `zetalab.zeta` is also a function

TWO_PI = 2.0 * math.pi

# Oracle anchors, frozen from mpmath at 30 digits.
GRAM_T1 = 23.170282701246309  # bisection of the log-Gamma theta on [20, 25]
FIRST_ZERO = 14.134725141734694
ZETA_HALF = -1.4603545088095868


class TestTheta:
    def test_zero(self):
        assert theta(0.0) == 0.0

    def test_gram_anchor(self):
        # theta at the first Gram point is pi
        assert theta(GRAM_T1) == pytest.approx(math.pi, abs=1e-5)

    def test_asymptotic_main_term_at_100(self):
        t = 100.0
        main = t / 2 * math.log(t / TWO_PI) - t / 2 - math.pi / 8
        assert abs(theta(t) - main) <= 1.0 / (40.0 * t)

    def test_oracle_sweep(self):
        for t in [1.0, 14.1347, 250.0, 5000.0, 1e5]:
            assert theta(t) == pytest.approx(float(mp.siegeltheta(mp.mpf(t))), abs=1e-9)

    def test_monotone_above_10(self):
        ts = np.linspace(10.0, 1e6, 2001)
        vals = theta(ts)
        assert np.all(np.diff(vals) > 0)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            theta(float("nan"))
        with pytest.raises(DomainError):
            theta(-1.0)


class TestThetaDeriv:
    def test_at_2pi_e(self):
        # main term (1/2) ln(t/2pi) equals 1/2 at t = 2 pi e
        assert theta_deriv(TWO_PI * math.e) == pytest.approx(0.5, abs=2e-3)

    def test_at_100(self):
        assert theta_deriv(100.0) == pytest.approx(0.5 * math.log(100.0 / TWO_PI), abs=1e-3)

    @pytest.mark.parametrize("t", [50.0, 500.0, 5000.0])
    def test_finite_difference_consistency(self, t):
        h = 1e-4
        fd = (theta(t + h) - theta(t - h)) / (2 * h)
        assert abs(theta_deriv(t) - fd) <= 1e-6

    def test_rejects_below_2pi(self):
        with pytest.raises(DomainError):
            theta_deriv(6.0)


class TestZeta:
    def test_euler_identity(self):
        assert zeta(2.0 + 0j) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-9)

    def test_half_real_axis(self):
        assert zeta(0.5 + 0j).real == pytest.approx(ZETA_HALF, abs=1e-6)

    def test_conjugate_symmetry(self):
        s = 0.75 + 1000.0j
        assert abs(zeta(complex(s.real, -s.imag)) - np.conj(zeta(s))) <= 1e-12

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            zeta(1.0 + 0j)
        with pytest.raises(DomainError):
            zeta(-0.5 + 3j)

    def test_oracle_sweep_off_line(self):
        for sigma, t in [(0.75, 100.0), (1.0, 1000.0), (2.0, 10000.0), (1.0, 52000.0)]:
            ours = zeta(complex(sigma, t))
            ref = complex(mp.zeta(mp.mpc(sigma, t)))
            assert abs(ours - ref) <= 1e-9, (sigma, t)

    def test_dirichlet_series_sigma2(self):
        # 50-term partial sum plus an integral tail bound must contain zeta
        rng = np.random.default_rng(11)
        n = np.arange(1, 51, dtype=float)
        tail_bound = 1.0 / 50.0  # sum_{n>50} n^-2 < integral_{50}^inf x^-2 dx
        for t in rng.random(20) * 1e4:
            s = complex(2.0, t)
            partial = np.sum(n ** -2.0 * np.exp(-1j * t * np.log(n)))
            assert abs(zeta(s) - partial) <= tail_bound + 1e-10

    def test_em_bound_is_honest(self):
        # the a-posteriori bound must dominate the actual error
        for sigma, t in [(0.75, 1000.0), (1.0, 10000.0), (2.0, 52000.0)]:
            err = abs(zeta(complex(sigma, t)) - complex(mp.zeta(mp.mpc(sigma, t))))
            assert err <= em_error_bound(sigma, t)

    def test_precision_error_when_unattainable(self):
        # the Euler-Maclaurin bound at sigma = 0.1, t = 9e5 is 1.7e-4 > EVAL_TOL
        with pytest.raises(PrecisionError) as exc:
            zeta(complex(0.1, 9e5))
        assert exc.value.achievable > 1e-5


def _next_prime(n):
    while n < 2 or any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _direct_main_sum(s, N):
    """sum_{n<N} exp(-s log n) term by term in extended precision."""
    logn = np.log(np.arange(1, N, dtype=np.longdouble))
    return np.array([complex(np.exp(-np.clongdouble(x) * logn).sum()) for x in s])


def psi_deriv(p, k):
    """k-th derivative of Psi at p (vectorized), from the Taylor table."""
    x = np.asarray(p, dtype=float) - _PSI_CENTER
    v = np.zeros_like(x)
    for c in _psi_deriv_coeffs(k)[::-1]:
        v = v * x + c
    return v


def _seven_call_corrections(p, tau):
    """C0 + C1/tau + C2/tau^2 + C3/tau^3 from seven psi_deriv calls."""
    pi2, pi4, pi6 = math.pi ** 2, math.pi ** 4, math.pi ** 6
    c0 = psi_deriv(p, 0)
    c1 = -psi_deriv(p, 3) / (96.0 * pi2)
    c2 = psi_deriv(p, 2) / (64.0 * pi2) + psi_deriv(p, 6) / (18432.0 * pi4)
    c3 = (
        -psi_deriv(p, 1) / (64.0 * pi2)
        - psi_deriv(p, 5) / (3840.0 * pi4)
        - psi_deriv(p, 9) / (5308416.0 * pi6)
    )
    return c0 + (c1 + (c2 + c3 / tau) / tau) / tau


def _reference_rs_block(ts):
    """Riemann-Siegel Z as one whole masked rectangle of temporaries, with
    the seven-call corrections."""
    tau = np.sqrt(ts / TWO_PI)
    m = np.floor(tau).astype(np.int64)
    p = tau - m
    th = np.imag(loggamma(0.25 + 0.5j * ts)) - 0.5 * ts * math.log(math.pi)
    n = np.arange(1, int(m.max()) + 1, dtype=float)
    phase = th[:, None] - ts[:, None] * np.log(n)[None, :]
    terms = np.cos(phase) * (1.0 / np.sqrt(n))[None, :]
    terms[n[None, :] > m[:, None]] = 0.0
    main = 2.0 * np.sum(terms, axis=1)
    sign = np.where(m % 2 == 0, -1.0, 1.0)
    return main + sign * _seven_call_corrections(p, tau) / np.sqrt(tau)


class TestLineKernel:
    """The prime-phase Euler-Maclaurin main sum and its shared plan."""

    @given(
        sigma=st.floats(min_value=0.5, max_value=3.0),
        t=st.floats(min_value=10.0, max_value=2e4),
        cutoff=st.sampled_from(["rule", "prime", "power of 2"]),
        above=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sum(self, sigma, t, cutoff, above):
        N = PrecisionConfig.em_cutoff(t)
        if cutoff == "prime":
            N = _next_prime(N) + above
        elif cutoff == "power of 2":
            N = 2 ** (N - 1).bit_length() + above
        ts = t + 0.37 * np.arange(70)  # crosses a 64-point sub-block edge
        ours = _em_main_sum(np.full_like(ts, sigma), ts, N)
        ref = _direct_main_sum(sigma + 1j * ts, N)
        assert np.max(np.abs(ours - ref)) <= em_roundoff_bound(ts.max(), N)

    def test_threads_share_the_plan_bit_identically(self, monkeypatch):
        heights = [t0 + np.linspace(0.0, 40.0, 150) for t0 in (3e3, 2e4, 8e3, 5e4)]
        serial = [zeta_abs2_line(1.0, ts) for ts in heights]
        # more threads than cores start from an empty plan and grow it
        # concurrently, with frequent thread switches
        monkeypatch.setattr(zeta_module, "_PLAN", zeta_module._PrimePlan(0))
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(zeta_abs2_line, 1.0, ts) for ts in heights]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old_interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_line_kernel_memory_is_bounded(self):
        ts = 1e4 + np.linspace(0.0, 20.0, 4096)
        tracemalloc.start()
        try:
            zeta_abs2_line(1.0, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @given(
        sigma=st.floats(min_value=0.5, max_value=3.0),
        t=st.floats(min_value=10.0, max_value=3e4),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_point_tail_matches_block(self, sigma, t):
        # a one-point block runs the Bernoulli tail in Python scalars
        one = _zeta_em_block(np.array([sigma]), np.array([t]))[0]
        two = _zeta_em_block(np.full(2, sigma), np.full(2, t))
        assert two[0] == two[1]
        assert abs(one - two[0]) <= em_roundoff_bound(t, PrecisionConfig.em_cutoff(t))

    @staticmethod
    def _csv_at_jobs_1_and_2(args, tmp_path, monkeypatch, clear_memos):
        # --jobs is accepted and ignored, so both are one-thread runs, each
        # from empty window memos and an empty prime plan
        outs = []
        for jobs in ("1", "2"):
            clear_memos()
            monkeypatch.setattr(zeta_module, "_PLAN", zeta_module._PrimePlan(0))
            out = tmp_path / f"jobs{jobs}.csv"
            code = main(args + ["--jobs", jobs, "--out", str(out),
                                "--manifest", str(tmp_path / "manifest.jsonl")])
            assert code == 0
            outs.append(out.read_bytes())
        return outs

    def test_functional_sigma_line_jobs_invariance(self, tmp_path, monkeypatch, clear_memos):
        args = ["functional", "--kind", "A", "--x", "1", "--sigma", "1", "--tau", "4,8"]
        one, two = self._csv_at_jobs_1_and_2(args, tmp_path, monkeypatch, clear_memos)
        assert one == two

    def test_fermat_kind_c_jobs_invariance(self, tmp_path, monkeypatch, clear_memos):
        # the taus put the windows at T = 2500 and 2550; `fermat` writes
        # only its verdict, so the same kind-C trace is also run through
        # `functional`, whose CSV holds the values
        taus = ["--tau", "333.458,340.127"]
        fermat = ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3", "--kind", "C",
                  "--sigma", "1"]
        functional = ["functional", "--kind", "C", "--x", "0.728", "--sigma", "1"]
        for args in (fermat, functional):
            one, two = self._csv_at_jobs_1_and_2(args + taus, tmp_path, monkeypatch,
                                                  clear_memos)
            assert one == two


class TestPanelKernel:
    """|zeta|^2 at the GK21 nodes of equal-width panels: one EM row per
    panel, reached at each node through a table shared by the panels."""

    @pytest.mark.parametrize("sigma", [0.51, 0.6, 1.0, 2.0])
    def test_matches_mpmath_at_the_exact_nodes(self, sigma):
        # the kernel evaluates at mid + half * x_j exactly, not at its
        # double rounding, which moves |zeta|^2 by up to 3e-12 at t = 1e4; the
        # two high windows check alternate nodes, so every node is seen
        half = 0.65
        for T, nodes in ((200.0, range(21)), (1e3, range(21)),
                         (1e4, range(0, 21, 2)), (5e4, range(1, 21, 2))):
            mid = T + 0.6
            got = zeta_abs2_panels(sigma, [mid], half)[0]
            for j in nodes:
                with mp.workdps(20):
                    t = mp.mpf(mid) + mp.mpf(half) * mp.mpf(float(_GK_X[j]))
                    ref = float(abs(mp.zeta(mp.mpc(sigma, t))) ** 2)
                b = em_error_bound(sigma, float(t))
                assert abs(got[j] - ref) <= 2.0 * math.sqrt(ref) * b + b * b
                if sigma >= 1.0:
                    assert got[j] == pytest.approx(ref, rel=2e-13)

    @pytest.mark.parametrize(
        "sigma,t_lo,t_hi",
        [(1.0, 0.1, 30.0), (0.6, 0.0, 40.0), (1.2, 0.0, 100.0), (1.0, 1e3, 1010.0),
         (0.6, 1e3, 1010.0), (2.0, 1e3, 1010.0), (1.0, 1e3, 1500.0)],
    )
    def test_matches_the_line_kernel(self, sigma, t_lo, t_hi):
        # graded panels at the pole are runs of one panel each, and the
        # 218 panels on [1e3, 1500] span two blocks; the line kernel sees
        # the double-rounded nodes
        for mids, half in sigma_panel_runs(sigma, t_lo, t_hi):
            got = zeta_abs2_panels(sigma, mids, half)
            nodes = mids[:, None] + half * _GK_X[None, :]
            line = zeta_abs2_line(sigma, nodes.ravel()).reshape(nodes.shape)
            np.testing.assert_allclose(got, line, rtol=5e-12, atol=0)

    def test_threads_share_the_plan_bit_identically(self, monkeypatch):
        windows = [(t0 + (2 * np.arange(150) + 1) * 0.3, 0.3) for t0 in (3e3, 2e4, 8e3, 5e4)]
        serial = [zeta_abs2_panels(1.0, mids, half) for mids, half in windows]
        monkeypatch.setattr(zeta_module, "_PLAN", zeta_module._PrimePlan(0))
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(zeta_abs2_panels, 1.0, mids, half)
                           for mids, half in windows]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old_interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    def test_memory_is_bounded(self):
        half = 0.3
        mids = 1e4 + (2 * np.arange(1000) + 1) * half
        tracemalloc.start()
        try:
            zeta_abs2_panels(1.0, mids, half)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            zeta_abs2_panels(0.0, [100.0], 0.5)
        with pytest.raises(DomainError):
            zeta_abs2_panels(1.0, [-1.0], 0.5)


class TestHardyZ:
    def test_first_zero(self):
        assert hardy_z(FIRST_ZERO) == pytest.approx(0.0, abs=1e-5)

    def test_single_heights_above_max_height_are_rejected(self):
        # rs_error_bound is calibrated only up to MAX_HEIGHT = 1e6
        with pytest.raises(DomainError):
            hardy_z(2e6)
        for s in (0.5 + 2e6j, 0.5 - 2e6j, 2.0 + 2e6j):
            with pytest.raises(DomainError):
                zeta(s)

    def test_vector_kernel_still_runs_above_max_height(self):
        # a ladder step from T <= 1e6 evaluates Z up to about 1.03e6
        assert math.isfinite(hardy_z_many([2e6])[0])

    def test_modulus_identity(self):
        # |Z(t)| = |zeta(1/2+it)|, checked across the EM/RS crossover
        for t in [10.0, 30.0, 250.0, 5000.0, 1e6]:
            z = hardy_z(t)
            zl = zeta(complex(0.5, t))
            assert abs(abs(z) - abs(zl)) <= 1e-9

    def test_imaginary_residue(self):
        t = 1000.0
        val = np.exp(1j * theta(t)) * zeta(complex(0.5, t))
        assert abs(val.imag) <= 1e-9

    def test_oracle_sweep(self):
        rng = np.random.default_rng(5)
        for tbase in [55.0, 120.0, 700.0, 4000.0, 30000.0]:
            t = tbase * (1.0 + rng.random())
            err = abs(hardy_z(t) - float(mp.siegelz(mp.mpf(t))))
            assert err <= rs_error_bound(t), t

    def test_em_rs_crossover_consistency(self):
        # both routes are accurate near the crossover; they must agree
        for t in [50.0, 51.3, 64.7]:
            rs = hardy_z(t)
            em = float(np.real(np.exp(1j * theta(t))
                               * complex(mp.zeta(mp.mpc(0.5, t)))))
            assert rs == pytest.approx(em, abs=5e-6)

    def test_bit_reproducible_per_call_shape(self):
        ts = np.linspace(60.0, 2000.0, 257)
        assert np.array_equal(hardy_z_many(ts), hardy_z_many(ts))

    def test_call_shape_differences_stay_at_roundoff(self):
        ts = np.linspace(60.0, 2000.0, 257)
        whole = hardy_z_many(ts)
        parts = np.concatenate([hardy_z_many(ts[:100]), hardy_z_many(ts[100:])])
        assert np.max(np.abs(whole - parts)) <= 1e-10

    def test_matches_whole_rectangle_reference(self):
        rng = np.random.default_rng(11)
        blocks = [rng.uniform(50.0, 3e4, 600), 50.0 + 40.0 * rng.random(300),
                  rng.uniform(9e3, 1.1e4, 4096), 1e4 + np.linspace(0.0, 20.0, 100)]
        singles = [np.array([t]) for t in (50.0, 51.3, 1234.5678, 9999.9, 29999.0)]
        for ts in blocks + singles:
            err = np.max(np.abs(hardy_z_many(ts) - _reference_rs_block(ts)))
            assert err <= 4e-15, ts[:3]

    @given(
        ts=st.lists(
            st.one_of(
                st.floats(min_value=50.0, max_value=1e8, exclude_max=True),
                st.floats(min_value=math.log(50.0), max_value=math.log(1e8),
                          exclude_max=True).map(lambda x: min(max(math.exp(x), 50.0), 99999999.0)),
            ),
            min_size=1, max_size=12,
        ),
        low=st.lists(st.floats(min_value=50.0, max_value=200.0), min_size=1, max_size=4),
        high=st.floats(min_value=1e7, max_value=1e8, exclude_max=True),
        # Euler-Maclaurin heights, the ends of their range included
        below=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=RS_CROSSOVER, exclude_max=True),
                st.sampled_from([0.0, float(np.nextafter(RS_CROSSOVER, 0.0))]),
            ),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_depends_only_on_its_own_t(self, ts, low, high, below):
        block = np.array(below + low + ts + [high])
        whole = hardy_z_many(block)
        alone = np.array([hardy_z_many(np.array([t]))[0] for t in block])
        assert np.array_equal(whole, alone)

    @pytest.mark.parametrize("n", [63, 64, 65, 4097])
    def test_value_below_the_crossover_depends_only_on_its_own_t(self, n):
        # blocks that end at and just past a 64-point Euler-Maclaurin pass
        # and a _BLOCK of heights
        ts = np.random.default_rng(n).uniform(0.0, RS_CROSSOVER, n)
        ts[:2] = 0.0, np.nextafter(RS_CROSSOVER, 0.0)
        whole = hardy_z_many(ts)
        alone = np.array([hardy_z_many(np.array([t]))[0] for t in ts])
        assert np.array_equal(whole, alone)

    def test_memory_is_bounded_near_1e8(self):
        # m is about 4000 here: the whole rectangle would be 130 MB per temporary
        ts = 1e8 + np.linspace(0.0, 20.0, 4096)
        tracemalloc.start()
        try:
            hardy_z_many(ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20


class TestPsiTable:
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_derivatives_match_finite_differences(self, p, k):
        def raw(x):
            return math.cos(TWO_PI * (x * x - x - 0.0625)) / math.cos(TWO_PI * x)

        h = 1e-3
        if k == 0:
            # away from the removable singularities compare to the raw form
            if min(abs(p - 0.25), abs(p - 0.75)) > 1e-2:
                assert float(psi_deriv(p, 0)) == pytest.approx(raw(p), abs=1e-9)
        else:
            # 5-point stencil on the (k-1)-th derivative, O(h^4) truncation
            v = [float(psi_deriv(p + j * h, k - 1)) for j in range(-2, 3)]
            fd = (-v[4] + 8 * v[3] - 8 * v[1] + v[0]) / (12 * h)
            assert float(psi_deriv(p, k)) == pytest.approx(fd, abs=1e-6 + 1e-6 * abs(fd))

    def test_fused_corrections_match_seven_calls(self):
        p = np.linspace(0.0, 1.0, 4001)[:-1]
        for tau in np.geomspace(2.8, 400.0, 25):
            taus = np.full_like(p, tau)
            err = np.max(np.abs(_rs_correction(p, taus) - _seven_call_corrections(p, taus)))
            assert err <= 1e-15, tau
