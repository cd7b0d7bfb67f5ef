"""S(t) branch tracking, zero counting, and the S1 antiderivative."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zetalab.argz as argz
from zetalab import (
    AmbiguousBranchError,
    DomainError,
    ZeroCache,
    s1_of_t,
    s_of_t,
    shared_s1_evaluator,
    theta,
)
from zetalab.quad import gauss_panels
from zetalab.zeta import _BLOCK, MAX_HEIGHT, RS_CROSSOVER, TWO_PI, hardy_z_many

FIRST_ZEROS = [14.134725141734694, 21.022039638771555, 25.010857580145689,
               30.424876125859513, 32.935061587739190]


class TestSofT:
    def test_at_zero_height(self):
        tr = s_of_t(0.0)
        assert tr.s_value == 0.0 and tr.zero_count == 0

    def test_t100_matches_count_identity(self):
        tr = s_of_t(100.0)
        assert tr.zero_count == 29
        assert tr.s_value == pytest.approx(29 - 1 - theta(100.0) / math.pi, abs=1e-9)

    def test_integrality_at_50(self):
        tr = s_of_t(50.0)
        x = theta(50.0) / math.pi + 1.0 + tr.s_value
        assert abs(x - round(x)) <= 1e-8

    def test_integrality_random_heights(self):
        rng = np.random.default_rng(1)
        for t in 10.0 + rng.random(12) * (1e4 - 10.0):
            tr = s_of_t(float(t))
            assert tr.branch_residual <= 1e-8

    def test_zero_counts_match_oracle(self):
        # mp.nzeros is an independent zero counter
        for t in [50.0, 100.0, 500.5]:
            assert s_of_t(t).zero_count == int(mp.nzeros(t))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(10.0, 1e4))
    def test_integrality_and_count_property(self, t):
        # at any height N(t) is an integer and the zero scan agrees; a
        # height numerically at a zero may refuse to pick a branch
        try:
            tr = s_of_t(t)
        except AmbiguousBranchError:
            return
        assert tr.branch_residual <= 1e-8
        assert tr.zero_count == shared_s1_evaluator().zeros_cache.count_below(t)

    def test_rejects_zero_ordinate(self):
        with pytest.raises(AmbiguousBranchError):
            s_of_t(FIRST_ZEROS[0])

    def test_low_height_below_first_zero(self):
        # the horizontal leg passes near the pole; adaptivity must cope
        tr = s_of_t(0.5)
        assert tr.zero_count == 0
        assert tr.branch_residual <= 1e-8

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            s_of_t(-3.0)


class TestZeroCache:
    def test_first_zeros(self):
        ev = shared_s1_evaluator()
        zs = ev.zeros_cache.ensure(40.0)
        assert np.allclose(zs[:5], FIRST_ZEROS, atol=1e-8)

    def test_counts_against_oracle(self):
        ev = shared_s1_evaluator()
        for t in [100.0, 300.0, 1000.0]:
            assert ev.zeros_cache.count_below(t) == int(mp.nzeros(t))

    def test_lehmer_pair_resolved(self):
        # the famously close pair just above 7005 must both be present
        ev = shared_s1_evaluator()
        zs = ev.zeros_cache.ensure(7010.0)
        near = zs[(zs > 7005.0) & (zs < 7005.2)]
        assert len(near) == 2
        assert near[0] == pytest.approx(7005.06287, abs=1e-4)
        assert near[1] == pytest.approx(7005.10056, abs=1e-4)

    def test_zero_positions_vs_oracle(self):
        # position error is the Z evaluation error over the local slope,
        # a few 1e-6 at these low heights and shrinking like t^{-9/4}
        ev = shared_s1_evaluator()
        zs = ev.zeros_cache.ensure(80.0)
        for k in [1, 5, 10, 20]:
            ref = float(mp.zetazero(k).imag)
            assert zs[k - 1] == pytest.approx(ref, abs=5e-6)

    @pytest.mark.parametrize("t", [1e6 + 1.0, 1e9, math.inf, math.nan])
    def test_rejects_heights_above_max(self, t):
        cache = ZeroCache()
        with pytest.raises(DomainError, match=r"zero scan to t = \S+ is above 1e\+06"):
            cache.ensure(t)
        assert cache.t_max == 0.0

    def test_ceiling_stops_at_max_height(self, monkeypatch):
        # the scan's ceiling is capped at MAX_HEIGHT, so the count check at
        # its checkpoint stays in the range that s_of_t accepts
        cache = ZeroCache()
        ceilings = []
        monkeypatch.setattr(cache, "_grow", lambda t_hi: ceilings.append(t_hi) or np.empty(0))
        for t in (5e5, 990_000.0, MAX_HEIGHT):
            cache.ensure(t)
        assert ceilings == [5e5 * 1.02 + 5.0, MAX_HEIGHT]
        assert ZeroCache._checkpoint_clear_of(np.empty(0), ceilings[-1]) <= MAX_HEIGHT


LEHMER_PAIR = 7005.06


@pytest.fixture(scope="module")
def fresh_zeros():
    """Zeros of one fresh ZeroCache per ceiling, computed once per module."""
    done = {}

    def get(t_max):
        if t_max not in done:
            done[t_max] = ZeroCache().ensure(t_max)
        return done[t_max]

    return get


def _bisect_52_rounds(a, b, fa, z):
    """The bisection as it was before brackets could leave early."""
    av, bv, fav = a.copy(), b.copy(), fa.copy()
    for _ in range(52):
        m = 0.5 * (av + bv)
        fm = z(m)
        left = np.sign(fm) == np.sign(fav)
        av = np.where(left, m, av)
        fav = np.where(left, fm, fav)
        bv = np.where(left, bv, m)
    return 0.5 * (av + bv)


def _scan_brackets(t_max):
    """The (a, b, Z(a), Z(b)) that a fresh scan to t_max hands to _bisect."""
    cache = ZeroCache()
    brackets = []
    bisect = cache._bisect

    def recording_bisect(a, b, fa, fb):
        brackets.append((a, b, fa, fb))
        return bisect(a, b, fa, fb)

    cache._bisect = recording_bisect
    cache.ensure(t_max)
    return brackets[0]


def _count_z_points(monkeypatch):
    """A list that receives the size of every later argz.hardy_z_many call."""
    points = []
    z = argz.hardy_z_many

    def counting_z(t):
        points.append(len(t))
        return z(t)

    monkeypatch.setattr(argz, "hardy_z_many", counting_z)
    return points


def _plain_bisection(a, b, fa, z):
    """The bisection that leaves a bracket once its midpoint is an end."""
    a, b, fa = a.copy(), b.copy(), fa.copy()
    live = np.arange(len(a))
    for _ in range(52):
        m = 0.5 * (a[live] + b[live])
        moving = (m != a[live]) & (m != b[live])
        live, m = live[moving], m[moving]
        if not len(live):
            break
        fm = z(m)
        left = np.sign(fm) == np.sign(fa[live])
        a[live[left]] = m[left]
        fa[live[left]] = fm[left]
        b[live[~left]] = m[~left]
    return 0.5 * (a + b)


class TestZeroCacheGrowth:
    @pytest.mark.parametrize(
        "ceilings",
        [(5615.0, 11225.0), (200.0, 1000.0, 3000.0, 11225.0), (100.0, 5615.0), (60.0, 11225.0)],
    )
    def test_grown_zeros_equal_a_fresh_scan(self, ceilings, fresh_zeros):
        cache = ZeroCache()
        scan = cache._scan
        restarts = []

        def recording_scan(starts, t_hi, *keep_from):
            restarts.append(starts[0])
            return scan(starts, t_hi, *keep_from)

        cache._scan = recording_scan
        for t in ceilings:
            cache.ensure(t)
        assert np.array_equal(cache.zeros, fresh_zeros(ceilings[-1]))
        if ceilings == (5615.0, 11225.0):
            # grown, not rescanned, from below the Lehmer pair
            assert RS_CROSSOVER <= restarts[1] < LEHMER_PAIR
        if ceilings[0] == 60.0:
            # grown, not rescanned, from the start of the block below the
            # old truncated one, though the kept zeros lie below t = 50
            old = cache._block_starts(100.0)
            assert restarts == [ZeroCache.FIRST_ZERO_FLOOR, old[-2]]
            assert old[-2] == pytest.approx(59.496)

    # ceilings whose scan target t * 1.02 + 5 lies just above or below a block start
    _NEAR_STARTS = [(a - 5.0) / 1.02 + d for a in ZeroCache()._block_starts(2.05e4)
                    for d in (-1e-3, 1e-3) if 100.0 <= (a - 5.0) / 1.02 + d <= 2e4]

    @settings(max_examples=6, deadline=None)
    @given(st.lists(st.one_of(st.floats(20.0, 2e4), st.sampled_from(_NEAR_STARTS)),
                    min_size=2, max_size=3, unique=True).map(sorted))
    # the second ceiling lies below the first target, but raises the target
    # and with it the points of the truncated block
    @example(ceilings=[2240.303815524534, 2240.3058155245344])
    def test_grown_zeros_equal_a_fresh_scan_at_any_ceilings(self, ceilings):
        cache = ZeroCache()
        for t in ceilings:
            cache.ensure(t)
        assert np.array_equal(cache.zeros, ZeroCache().ensure(ceilings[-1]))

    def test_growth_evaluates_nothing_below_the_kept_zeros(self, monkeypatch):
        # the kept zeros end two grid cells below the old truncated block,
        # and a bracket ending above them needs at most two cells more
        cache = ZeroCache()
        cache.ensure(5500.0)
        old = cache._block_starts(cache.t_max)
        cell = old[-1] - cache._block_grid(old[-2], old[-1])[-1]
        seen = []
        z = argz.hardy_z_many

        def recording_z(t):
            seen.append(np.min(t))
            return z(t)

        monkeypatch.setattr(argz, "hardy_z_many", recording_z)
        cache.ensure(11000.0)
        assert old[-1] - 4.0 * cell * (1.0 + 1e-9) <= min(seen) < old[-1]

    def test_early_exit_matches_52_rounds(self, monkeypatch):
        a, b, fa, fb = _scan_brackets(3e3)
        assert len(a) > 1000

        points = _count_z_points(monkeypatch)
        early = ZeroCache()._bisect(a, b, fa, fb)
        early_points = sum(points)
        points.clear()
        full = _bisect_52_rounds(a, b, fa, argz.hardy_z_many)
        assert np.array_equal(early, full)
        assert early_points < sum(points) == 52 * len(a)

    def test_every_scan_bracket_matches_plain_bisection(self):
        # brackets below RS_CROSSOVER included, where Z comes from the
        # Euler-Maclaurin kernel and the guarded walk runs as above it
        a, b, fa, fb = _scan_brackets(3e3)
        assert np.any(a < RS_CROSSOVER)
        plain = _plain_bisection(a, b, fa, argz.hardy_z_many)
        assert np.array_equal(ZeroCache()._bisect(a, b, fa, fb), plain)

    def test_z_points_per_bracket(self, monkeypatch):
        # bisection alone takes about 40 per bracket; Illinois steps that
        # decide the far midpoints for free leave fewer than 24
        brackets = _scan_brackets(3e3)
        points = _count_z_points(monkeypatch)
        ZeroCache()._bisect(*brackets)
        assert sum(points) < 24 * len(brackets[0])

    @settings(max_examples=40, deadline=None)
    @given(st.floats(ZeroCache.FIRST_ZERO_FLOOR, MAX_HEIGHT), st.floats(1e-3, 0.15),
           st.integers(8, 64))
    def test_bisect_equals_52_rounds_on_random_brackets(self, t0, step, n):
        # the sign-change brackets of a grid at `step` mean gaps from t0
        grid = t0 + step * TWO_PI / math.log(t0 / TWO_PI) * np.arange(n + 1)
        z = hardy_z_many(grid)
        flips = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
        a, b, fa, fb = grid[flips], grid[flips + 1], z[flips], z[flips + 1]
        full = _bisect_52_rounds(a, b, fa, hardy_z_many)
        assert np.array_equal(ZeroCache()._bisect(a, b, fa, fb), full)


class TestS1:
    def test_at_zero(self):
        assert s1_of_t(0.0) == 0.0

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, 2e6])
    def test_rejects_heights_outside_the_domain(self, t):
        # one check, before the zero scan is asked for t
        for evaluate in (s1_of_t, shared_s1_evaluator().value_many):
            with pytest.raises(DomainError, match=r"^S1 requires 0 <= t <= 1e\+06$"):
                evaluate(t)

    def test_derivative_is_s(self):
        t, h = 200.0, 1e-3
        fd = (s1_of_t(t + h) - s1_of_t(t - h)) / (2 * h)
        assert fd == pytest.approx(s_of_t(t).s_value, abs=1e-4)

    def test_value_against_jump_aware_trapezoid(self):
        # Independent route: trapezoid of branch-tracked S(u) on a fine
        # grid split at the zeros (S is smooth inside each piece).
        t = 100.0
        delta = 2e-4  # clear of the zeros by more than their position error
        ev = shared_s1_evaluator()
        zs = ev.zeros_cache.ensure(t)
        knots = np.concatenate([[1e-9], zs[zs < t], [t]])
        total = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            m = max(24, int((b - a) * 40))
            grid = np.linspace(a + delta, b - delta, m)
            vals = [s_of_t(float(u)).s_value for u in grid]
            total += float(np.trapezoid(vals, grid))
            total += delta * (vals[0] + vals[-1])  # edge slivers
        # agreement is limited by the zero-position uncertainty entering
        # the two routes differently (~1e-6 per low zero)
        assert s1_of_t(t) == pytest.approx(total, abs=2e-4)

    def test_continuity(self):
        ev = shared_s1_evaluator()
        rng = np.random.default_rng(2)
        delta = 1e-3
        ts = 20.0 + rng.random(40) * 980.0
        v0 = ev.value_many(ts)
        v1 = ev.value_many(ts + delta)
        # S(u) = N(u) - 1 - theta(u)/pi from the zero staircase
        s = np.searchsorted(ev.zeros_in(0.0, ts.max()), ts) - 1.0 - theta(ts) / math.pi
        smax = np.max(np.abs(s)) + 1.0
        assert np.all(np.abs(v1 - v0) <= (smax + 1.0) * delta)

    def test_value_many_does_not_depend_on_the_batch(self):
        # the theta integral runs in blocks of _BLOCK query points;
        # a point's value must not depend on the block it lands in
        ev = shared_s1_evaluator()
        ts = np.linspace(100.0, 1000.0, 2 * _BLOCK + 3)
        ev.ensure(1000.0)
        whole = ev.value_many(ts)
        assert np.array_equal(whole, np.concatenate([ev.value_many(ts[:5]),
                                                     ev.value_many(ts[5:])]))
        assert whole[-1] == s1_of_t(1000.0)

    def test_higher_resolution_self_oracle(self):
        # finer theta panels and the same zero set must reproduce S1
        t = 100.0
        ev = shared_s1_evaluator()
        base = s1_of_t(t)
        zs = ev.zeros_cache.ensure(t)
        zsum = float(np.sum(t - zs[zs < t]))
        nodes, weights = gauss_panels(0.0, t, width=2.0, order=24)
        fine = zsum - t - float(np.sum(theta(nodes) * weights)) / math.pi
        assert base == pytest.approx(fine, abs=1e-6)
