"""The argument of zeta on the critical line: S(t), zero counting, S1(t).

S(t) follows the classical convention: continuous variation of
arg zeta along 2 -> 2+it -> 1/2+it starting from arg zeta(2) = 0.  The
machine check is the Riemann-von Mangoldt branch identity
theta(t)/pi + 1 + S(t) = N(t), whose distance from the nearest integer
is reported as the branch residual.

S1(t) = (1/pi) * integral_0^t arg zeta(1/2+iu) du is evaluated through
the staircase structure of S: between consecutive zeros S(u) equals
N - 1 - theta(u)/pi with N constant, so the integral reduces to zero
ordinates plus an antiderivative of theta.  The quadrature grid is
thereby adapted to every jump of the integrand.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import AmbiguousBranchError, DomainError, TrackingError
from .quad import panel_sums
from .zeta import _BLOCK, MAX_HEIGHT, TWO_PI, _zeta_point, hardy_z_many, theta


@dataclass(frozen=True)
class ArgTrace:
    """S(t) together with the zero count and integrality residual."""

    s_value: float
    zero_count: int
    branch_residual: float


_MAX_SPLIT_DEPTH = 26
_ARG_STEP_LIMIT = 1.2  # radians per accepted tracking increment
_SIGMA_STEPS = 15  # initial steps of the horizontal leg, 0.1 wide


def s_of_t(t: float) -> ArgTrace:
    """S(t) by adaptive branch tracking, with N(t) and the residual.

    Rejects t numerically at a zero ordinate (the branch jump there is
    convention-dependent).
    """
    t = float(t)
    if not (0.0 <= t <= MAX_HEIGHT):
        raise DomainError(f"s_of_t requires 0 <= t <= {MAX_HEIGHT:g}")
    if t == 0.0:
        # Degenerate polyline; fixed by convention.
        return ArgTrace(s_value=0.0, zero_count=0, branch_residual=0.0)

    # Vertical leg: |zeta(2+it) - 1| <= zeta(2) - 1 < 1 keeps the value in
    # the right half-plane, so the principal argument is already the
    # continuous branch.
    v = _zeta_point(2.0, t)
    total = math.atan2(v.imag, v.real)

    endpoint = _zeta_point(0.5, t)
    if abs(endpoint) < 1e-6:
        raise AmbiguousBranchError(f"t={t} is numerically at a zero ordinate")

    # Horizontal leg: sigma from 2 down to 1/2 in _SIGMA_STEPS initial
    # steps, each increment a principal-log of a ratio.
    sigmas = np.linspace(2.0, 0.5, _SIGMA_STEPS + 1)

    def increment(s1: float, s2: float, v1: complex, v2: complex, depth: int) -> float:
        d = np.angle(v2 / v1)
        if abs(d) < _ARG_STEP_LIMIT:
            return float(d)
        if depth >= _MAX_SPLIT_DEPTH:
            if min(abs(v1), abs(v2)) < 1e-4:
                raise AmbiguousBranchError(
                    f"t={t} is too close to a zero ordinate for branch tracking"
                )
            raise TrackingError(
                f"argument varies too fast near sigma={s1:.6f}..{s2:.6f}, t={t}"
            )
        sm = 0.5 * (s1 + s2)
        vm = _zeta_point(sm, t)
        return increment(s1, sm, v1, vm, depth + 1) + increment(sm, s2, vm, v2, depth + 1)

    v_prev = v
    for j in range(1, len(sigmas)):
        v_next = endpoint if j == len(sigmas) - 1 else _zeta_point(float(sigmas[j]), t)
        total += increment(float(sigmas[j - 1]), float(sigmas[j]), v_prev, v_next, 0)
        v_prev = v_next

    s_val = total / math.pi
    x = theta(t) / math.pi + 1.0 + s_val
    n = int(round(x))
    resid = abs(x - n)
    if resid > 0.25:
        raise TrackingError(f"branch integrality residual {resid:.3f} at t={t}")
    return ArgTrace(s_value=s_val, zero_count=max(n, 0), branch_residual=resid)


# ----------------------------------------------------------------------
# Zeros of Z on the critical line
# ----------------------------------------------------------------------

class ZeroCache:
    """Ordinates of the zeros of Z up to a growing ceiling.

    Zeros are located by sign changes on a graded grid (a fixed fraction
    of the local mean gap), a dip-refinement pass that hunts for
    close pairs hiding inside same-sign cells, and vectorized bisection.
    A bracket leaves the bisection once its midpoint equals one of its
    ends, since it cannot move any more.

    The bisection path is walked, but Z is evaluated on it only near the
    root.  First an inner bracket [lo, hi] inside each bracket [a, b]
    narrows by Illinois steps (modified regula falsi) until
    hi - lo <= 4 g, g = GUARD_ULPS ulps of b.  Then the walk: a midpoint
    at least g below lo or above hi takes that side without a Z call,
    the others are evaluated.  So the zeros are the bisection's bit for
    bit, provided the computed sign of Z is the true one more than g/2
    from a simple root.  Z depends only on its own t, so the path does
    not depend on which brackets are walked together.  The final count
    is cross-checked against the branch-tracking count N(t); a mismatch
    raises rather than self-corrects, keeping the two channels
    independent.

    The grid is cut into blocks [a, 1.3 a + 5), and the scan up to a
    ceiling truncates the last one.  A higher ceiling grows the scan
    instead of redoing it.  The grid points below the old truncated
    block, and its first point, are the same in the old and new grids,
    so only brackets and dips that reach its second point differ, and
    their zeros lie at or above the last grid point before it.  The old
    zeros below the split, the grid point two cells below the truncated
    block, are kept; Z is evaluated from two grid points below the split,
    the neighbours every bracket ending above it needs, and only the
    zeros above it are located and added.  Z depends only on its own t,
    so the grown zeros are bit-identical to a fresh scan, and only the
    first scan starts from FIRST_ZERO_FLOOR.  ensure(t) scans to the
    target 1.02 t + 5 and grows whenever that target rises, since the
    truncated block's points follow it.  So for any call history, the
    zeros held after ensure(t) equal those of a fresh ensure(u), u the
    highest ceiling asked for so far.
    """

    FIRST_ZERO_FLOOR = 10.0
    GUARD_ULPS = 256

    def __init__(self):
        self.t_max = 0.0
        self.zeros = np.empty(0)
        self._lock = threading.Lock()

    def ensure(self, t_max: float) -> np.ndarray:
        if not t_max <= MAX_HEIGHT:
            raise DomainError(f"zero scan to t = {t_max:g} is above {MAX_HEIGHT:g}")
        # capped, so that the count check at the ceiling is in s_of_t's range
        target = min(max(t_max * 1.02 + 5.0, 100.0), MAX_HEIGHT)
        with self._lock:
            if target > self.t_max:
                self.zeros = self._grow(target)
                self.t_max = target
            return self.zeros

    def count_below(self, t: float) -> int:
        self.ensure(t)
        return int(np.searchsorted(self.zeros, t))

    # -- internals ------------------------------------------------------

    def _block_starts(self, t_hi: float) -> list:
        starts = []
        a = self.FIRST_ZERO_FLOOR
        while a < t_hi:
            starts.append(a)
            a = a * 1.3 + 5.0
        return starts

    def _grow(self, t_hi: float) -> np.ndarray:
        starts = self._block_starts(t_hi)
        old = self._block_starts(self.t_max)
        k = len(old) - 3  # two blocks below the old, truncated last block
        if k < 0:
            zeros = self._scan(starts, t_hi)
        else:
            # the grid point two cells below the old truncated block, whose
            # points beyond its start change with the ceiling
            split = float(self._block_grid(old[k + 1], old[k + 2])[-2])
            zeros = np.concatenate([
                self.zeros[: np.searchsorted(self.zeros, split)],
                self._scan(starts[k + 1:], t_hi, split),
            ])
        self._check_count(zeros, t_hi)
        return zeros

    @staticmethod
    def _block_grid(a: float, b: float) -> np.ndarray:
        """The grid points of the block [a, b): equal cells, each at most a
        fixed fraction of the mean gap at a."""
        gap = TWO_PI / math.log(max(a, 20.0) / TWO_PI)
        h = max(min(0.25, 0.15 * gap), 1e-4)
        n = int(math.ceil((b - a) / h))
        return np.linspace(a, b, n + 1)[:-1]

    def _grid(self, starts: list, t_hi: float) -> np.ndarray:
        blocks = [self._block_grid(a, b) for a, b in zip(starts, starts[1:] + [t_hi])]
        blocks.append(np.array([t_hi]))
        return np.concatenate(blocks)

    def _scan(self, starts: list, t_hi: float, keep_from: float = 0.0) -> np.ndarray:
        """The zeros >= keep_from found on the grid of `starts`.  A bracket
        that ends below keep_from cannot hold a kept zero and is not
        bisected, and the grid is evaluated from two points below
        keep_from, the neighbours every kept bracket needs."""
        grid = self._grid(starts, t_hi)
        grid = grid[max(0, int(np.searchsorted(grid, keep_from)) - 2):]
        z = hardy_z_many(grid)
        sgn = np.sign(z)
        flip = sgn[:-1] * sgn[1:] < 0
        flips = np.nonzero(flip)[0]
        a = [grid[flips]]
        b = [grid[flips + 1]]
        fa = [z[flips]]
        fb = [z[flips + 1]]

        # dip refinement: a same-sign cell whose middle sample is a local
        # minimum of |Z| below the threshold may hide a close pair
        absz = np.abs(z)
        cand = np.nonzero(
            (absz[1:-1] < 0.08)
            & (absz[1:-1] <= absz[:-2])
            & (absz[1:-1] <= absz[2:])
            & ~flip[1:]
            & ~flip[:-1]
        )[0] + 1
        if len(cand):
            sub = np.linspace(grid[cand - 1], grid[cand + 1], 41, axis=1)
            zs = hardy_z_many(sub.ravel()).reshape(sub.shape)
            ss = np.sign(zs)
            rows, cols = np.nonzero(ss[:, :-1] * ss[:, 1:] < 0)
            a.append(sub[rows, cols])
            b.append(sub[rows, cols + 1])
            fa.append(zs[rows, cols])
            fb.append(zs[rows, cols + 1])

        a, b, fa, fb = (np.concatenate(v) for v in (a, b, fa, fb))
        keep = b >= keep_from
        zeros = np.sort(self._bisect(a[keep], b[keep], fa[keep], fb[keep]))
        return zeros[np.searchsorted(zeros, keep_from):]

    def _bisect(self, a: np.ndarray, b: np.ndarray, fa: np.ndarray,
                fb: np.ndarray) -> np.ndarray:
        """Midpoints of the brackets [a, b] (fa = Z(a), fb = Z(b)) after
        bisection, g = GUARD_ULPS ulps of b for every bracket.  Phase 1
        takes Illinois steps, one batch per round, on every inner bracket
        [lo, hi] still wider than 4 g.  Phase 2 walks the bisection path:
        a midpoint g clear of [lo, hi] takes its side without a Z call,
        the others are evaluated in one batch per round, and the sign of
        Z(lo) decides.
        """
        a, b = a.copy(), b.copy()
        lo, hi, flo, fhi = a.copy(), b.copy(), fa.copy(), fb.copy()
        g = self.GUARD_ULPS * np.spacing(b)
        moved = np.zeros(len(a), dtype=np.int8)  # inner end moved last: -1 lo, 1 hi
        live = np.nonzero(hi - lo > 4.0 * g)[0]
        while len(live):
            l, h, fl, fh = lo[live], hi[live], flo[live], fhi[live]
            x = l - fl * (h - l) / (fh - fl)
            x = np.where((x > l) & (x < h), x, 0.5 * (l + h))
            fx = hardy_z_many(x)
            same = np.sign(fx) == np.sign(fl)
            i, k = live[same], live[~same]
            fhi[i[moved[i] == -1]] *= 0.5  # Illinois: halve Z at an end kept twice
            flo[k[moved[k] == 1]] *= 0.5
            lo[i], flo[i], moved[i] = x[same], fx[same], -1
            hi[k], fhi[k], moved[k] = x[~same], fx[~same], 1
            live = live[hi[live] - lo[live] > 4.0 * g[live]]

        live = np.arange(len(a))
        while True:
            idx = live  # free steps: a midpoint g clear of [lo, hi] takes that side
            while len(idx):
                m = 0.5 * (a[idx] + b[idx])
                left = m <= lo[idx] - g[idx]
                free = (left | (m >= hi[idx] + g[idx])) & (m != a[idx]) & (m != b[idx])
                idx, m, left = idx[free], m[free], left[free]
                a[idx[left]] = m[left]
                b[idx[~left]] = m[~left]

            m = 0.5 * (a[live] + b[live])
            go = (m != a[live]) & (m != b[live])
            live, m = live[go], m[go]
            if not len(live):
                return 0.5 * (a + b)
            same = np.sign(hardy_z_many(m)) == np.sign(flo[live])  # Z(lo) keeps its sign
            inside = (m > lo[live]) & (m < hi[live])
            a[live[same]] = m[same]
            b[live[~same]] = m[~same]
            lo[live[inside & same]] = m[inside & same]
            hi[live[inside & ~same]] = m[inside & ~same]

    def _check_count(self, zeros: np.ndarray, t_hi: float) -> None:
        """Independent count validation at a checkpoint clear of any zero."""
        check = self._checkpoint_clear_of(zeros, t_hi)
        n_expected = s_of_t(check).zero_count
        n_found = int(np.searchsorted(zeros, check))
        if n_found != n_expected:
            raise TrackingError(
                f"zero scan found {n_found} zeros below {check:.3f}, "
                f"branch tracking expects {n_expected}"
            )

    @staticmethod
    def _checkpoint_clear_of(zeros: np.ndarray, t_hi: float) -> float:
        check = t_hi - 0.25
        if len(zeros):
            near = zeros[np.abs(zeros - check) < 0.05]
            if len(near):
                check = float(near[0]) - 0.4
        return check


class _S1Tables(NamedTuple):
    """One immutable generation of the evaluator's lookup tables."""

    t_max: float
    zeros: np.ndarray
    zero_prefix: np.ndarray
    edges: np.ndarray
    theta_prefix: np.ndarray


class S1Evaluator:
    """S1(t) from the zero staircase plus an antiderivative of theta.

    S1(t) = sum_{gamma <= t} (t - gamma) - t - (1/pi) int_0^t theta.

    Tables are rebuilt as whole immutable generations and swapped in a
    single assignment, so concurrent readers never see a mixed state.
    """

    _THETA_PANEL = 2.0
    _THETA_ORDER = 16

    def __init__(self):
        self.zeros_cache = ZeroCache()
        self._tables = _S1Tables(0.0, np.empty(0), np.zeros(1), np.zeros(1), np.zeros(1))
        self._lock = threading.Lock()

    def ensure(self, t_max: float) -> _S1Tables:
        tables = self._tables
        if t_max <= tables.t_max:
            return tables
        with self._lock:
            tables = self._tables
            if t_max <= tables.t_max:
                return tables
            zeros = self.zeros_cache.ensure(t_max)
            hi = self.zeros_cache.t_max
            edges = np.linspace(0.0, hi, int(math.ceil(hi / self._THETA_PANEL)) + 1)
            per = panel_sums(theta, edges[:-1], edges[1:], self._THETA_ORDER)
            tables = _S1Tables(
                t_max=hi,
                zeros=zeros,
                zero_prefix=np.concatenate([[0.0], np.cumsum(zeros)]),
                edges=edges,
                theta_prefix=np.concatenate([[0.0], np.cumsum(per)]),
            )
            self._tables = tables
            return tables

    def _theta_integral(self, tab: _S1Tables, t: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(tab.edges, t, side="right") - 1, 0, len(tab.edges) - 2)
        lo, n = tab.edges[i], _BLOCK  # blocks of query points keep GL16's arrays small
        return tab.theta_prefix[i] + np.concatenate([
            panel_sums(theta, lo[j:j + n], t[j:j + n], self._THETA_ORDER)
            for j in range(0, max(len(t), 1), n)])

    def value_many(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((0.0 <= t) & (t <= MAX_HEIGHT)):
            raise DomainError(f"S1 requires 0 <= t <= {MAX_HEIGHT:g}")
        tab = self.ensure(float(t.max()) if len(t) else 0.0)
        k = np.searchsorted(tab.zeros, t)
        zsum = t * k - tab.zero_prefix[k]
        return zsum - t - self._theta_integral(tab, t) / math.pi

    def zeros_in(self, a: float, b: float) -> np.ndarray:
        tab = self.ensure(b)
        lo = np.searchsorted(tab.zeros, a)
        hi = np.searchsorted(tab.zeros, b)
        return tab.zeros[lo:hi]


_SHARED = S1Evaluator()


def shared_s1_evaluator() -> S1Evaluator:
    """The process's one evaluator.  Its tables grow with the highest
    height asked for so far, and their round-off follows that ceiling
    (ROADMAP item 1)."""
    return _SHARED


def s1_of_t(t: float) -> float:
    """S1(t), the antiderivative of S, via the shared evaluator."""
    return float(shared_s1_evaluator().value_many(float(t))[0])
