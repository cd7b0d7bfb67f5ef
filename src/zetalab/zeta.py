"""Evaluators on and off the critical line: theta, zeta, Hardy Z.

Strategy split (fixed for reproducibility):
  * theta(t) exactly via Im log-Gamma(1/4 + it/2) - (t/2) ln pi.
  * Z(t) by the Riemann-Siegel main sum with correction terms C0..C3
    for t >= RS_CROSSOVER, by Euler-Maclaurin below it.
  * zeta(sigma+it) by Euler-Maclaurin off the critical line; on the
    critical line above the crossover it is reassembled from Z so that
    |zeta(1/2+it)| == |Z(t)| holds by construction.

The Riemann-Siegel corrections C0..C3 are fixed combinations of the
derivatives of Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p).  One table,
built at import from the Taylor series of Psi about p = 1/2, holds them as
polynomials in x = p - 1/2: Psi(1-p) = Psi(p) makes C0 and C2 even and C1
and C3 odd in x, so each is 24 coefficients in x^2 (times x for the odd
ones), and one Horner pass over a (4, points) array evaluates all four.
The main sum sum_{n<=m} n^{-1/2} cos(theta - t log n) is a masked
rectangle built in one buffer, at most 2^20 cells per pass of rows.  Its
width is padded with zero columns so that numpy's pairwise row sum adds
the same terms in the same order whatever else is in the block: Z above
the crossover depends only on its own t.

The Euler-Maclaurin main sum sum_{n<N} n^{-s} uses complete
multiplicativity: exp(-s log p) is evaluated only at primes p < N, and
each composite n is one complex multiply v[spf(n)] * v[n/spf(n)], done in
dyadic ranges of n so both factors already exist.  The prime phases
t log p are reduced mod 2 pi in split arithmetic, so their round-off
does not spread to every multiple of p.  One smallest-prime-
factor plan serves every N (it is closed under prefixes); it grows on
demand and is swapped in whole, so threads share it without a lock.
Points are processed 64 at a time, which keeps the (n x points) work
array to a few MB, and the sum over n is a fixed-order numpy reduction.

Quadrature on a sigma-line needs zeta at the 21 Gauss-Kronrod nodes
mid + half x_j of each panel.  There the rows are built once per panel,
at its mid, and n^{-i(mid + half x_j)} = n^{-i mid} n^{-i half x_j}: one
table U[n, j] = n^{-i half x_j}, itself built by the same prime plan, is
shared by all the panels of one width, and each node is one multiply
and one fixed-order sum over n (never BLAS, whose summation order
depends on its thread count).  The main sum is thus taken at the exact
node mid + half x_j, not at its double rounding.

Vectorized kernels are deterministic functions of their input array
(values and shape).  Euler-Maclaurin blocks depend on their largest t,
which sets the cutoff and where the Bernoulli tail stops; Riemann-Siegel
values do not depend on the block at all.  Every operation in this
package assembles those arrays from its own parameters alone, so op
results are bit-reproducible across runs and across worker counts;
worker parallelism only ever distributes whole operations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, loggamma, poch
from scipy.special import zeta as real_zeta

from .config import DomainError, PoleError, PrecisionConfig, check_eval
from .quad import _GK_X

TWO_PI = 2.0 * math.pi
LN_PI = math.log(math.pi)
EULER_GAMMA = 0.5772156649015329

# Crossover between Euler-Maclaurin and Riemann-Siegel for Z (both are
# accurate there; one fixed value keeps outputs reproducible).
RS_CROSSOVER = 50.0

_BLOCK = 4096  # fixed vector-kernel block size; part of the output contract


def _as_height_array(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("height t must be finite")
    if np.any(arr < 0.0):
        raise DomainError("height t must be >= 0")
    return arr


def theta(t):
    """Riemann-Siegel theta via the exact log-Gamma form (not the asymptotic).

    Accepts a scalar or array; scalar in, scalar out.
    """
    arr = _as_height_array(t)
    val = np.imag(loggamma(0.25 + 0.5j * arr)) - 0.5 * arr * LN_PI
    return float(val) if np.isscalar(t) or np.ndim(t) == 0 else val


def theta_deriv(t):
    """d theta/dt, exact up to round-off.  Requires t > 2 pi.

    Below 2 pi the derivative's main term (1/2) ln(t/2pi) is negative and
    callers must bracket instead of using Newton steps.
    """
    arr = _as_height_array(t)
    if np.any(arr <= TWO_PI):
        raise DomainError("theta_deriv requires t > 2*pi")
    val = 0.5 * np.real(digamma(0.25 + 0.5j * arr)) - 0.5 * LN_PI
    return float(val) if np.isscalar(t) or np.ndim(t) == 0 else val


# ----------------------------------------------------------------------
# Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p) and its derivatives.
#
# Psi is entire (the numerator vanishes at every zero of the
# denominator), so a single Taylor table about p = 1/2 covers [0, 1].
# Coefficients come from a trapezoidal Cauchy integral on |w - 1/2| = 1,
# which is exponentially accurate for entire integrands.
# ----------------------------------------------------------------------

_PSI_DEG = 64
_PSI_CENTER = 0.5


def _psi_taylor_table() -> np.ndarray:
    nodes = 512
    k = np.arange(nodes)
    w = _PSI_CENTER + np.exp(2j * np.pi * k / nodes)
    vals = np.cos(TWO_PI * (w * w - w - 0.0625)) / np.cos(TWO_PI * w)
    n = np.arange(_PSI_DEG + 1)
    F = np.exp(-2j * np.pi * np.outer(n, k) / nodes)
    return ((F @ vals) / nodes).real


_PSI_A = _psi_taylor_table()


def _psi_deriv_coeffs(k: int) -> np.ndarray:
    """Taylor coefficients of the k-th derivative of Psi in powers of
    x = p - 1/2, constant term first."""
    n = np.arange(k, _PSI_DEG + 1)
    return _PSI_A[k:] * poch(n - k + 1, k)


# Riemann-Siegel corrections C0..C3 as combinations of Psi derivatives
# (scale, order); Arias de Reyna, Math. Comp. 80 (2011).
_PI2 = math.pi ** 2
_PI4 = math.pi ** 4
_PI6 = math.pi ** 6
_RS_PARTS = (
    ((1.0, 0),),
    ((-1.0 / (96.0 * _PI2), 3),),
    ((1.0 / (64.0 * _PI2), 2), (1.0 / (18432.0 * _PI4), 6)),
    ((-1.0 / (64.0 * _PI2), 1), (-1.0 / (3840.0 * _PI4), 5),
     (-1.0 / (5308416.0 * _PI6), 9)),
)
# terms in x^2 kept per correction (C0, C2 even in x, C1, C3 odd): the
# first one dropped is below 2e-21 on |x| <= 1/2
_RS_TERMS = 24


def _rs_correction_table() -> np.ndarray:
    """Coefficients of C0, C1/x, C2, C3/x in powers of y = x^2, highest
    power first, shaped (_RS_TERMS, 4, 1) for a (4, points) Horner pass."""
    rows = []
    for i, parts in enumerate(_RS_PARTS):
        c = np.zeros(_PSI_DEG + 1)
        for scale, k in parts:
            d = _psi_deriv_coeffs(k)
            c[: len(d)] += scale * d
        rows.append(c[i % 2 :: 2][:_RS_TERMS])
    return np.stack(rows, axis=1)[::-1, :, None].copy()


_RS_TABLE = _rs_correction_table()


def _rs_correction(p: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """C0 + C1/tau + C2/tau^2 + C3/tau^3 with tau = sqrt(t/2pi): all four
    corrections in one Horner pass over a (4, points) array."""
    x = p - _PSI_CENTER
    y = x * x
    v = np.empty((4, len(x)))
    v[:] = _RS_TABLE[0]
    for c in _RS_TABLE[1:]:
        v *= y
        v += c
    c0, c1, c2, c3 = v
    return c0 + (x * c1 + (c2 + x * c3 / tau) / tau) / tau


# The top of [50, 1e6], the range on which `rs_error_bound` is verified.
# `hardy_z`, `zeta` and the heights that enter the zero scan, the Gram solve,
# S(t), the ladder step and the interval moments stop there (DomainError).
MAX_HEIGHT = 1e6


def rs_error_bound(t) -> np.ndarray:
    """A-posteriori bound for the C0..C3 Riemann-Siegel evaluation.

    Empirical envelope calibrated against an arbitrary-precision
    reference over [50, 1e6]: truncation tracks 0.011 t^{-9/4} (tripled
    here for safety) and the round-off floor tracks the main-sum phase
    magnitude t ln(t/2pi) at a few ulp.
    """
    t = np.asarray(t, dtype=float)
    return 0.033 * t ** -2.25 + 2e-15 * t * np.log(t / TWO_PI + 2.0)


_RS_CELLS = 1 << 20  # rows x terms per pass of the RS main sum (8 MB)


def _rs_width(mmax: int) -> int:
    """Columns of the RS main-sum rectangle for a block whose largest m is
    mmax: a multiple of 8 up to 128, the next power of two above that.

    numpy sums a contiguous row pairwise: 8 strided accumulators up to 128
    terms, halves split at multiples of 8 above.  At these widths the
    zero columns past a row's own m only ever add exact zeros, so the row
    sum is the same at every width the rule can give for that row.
    """
    if mmax <= 128:
        return -(-mmax // 8) * 8
    return 1 << (mmax - 1).bit_length()


def _hardy_z_rs_block(ts: np.ndarray) -> np.ndarray:
    """RS main sum + C0..C3 for one block, all t >= RS_CROSSOVER.

    Each value depends only on its own t (see `_rs_width`)."""
    tau = np.sqrt(ts / TWO_PI)
    m = np.floor(tau).astype(np.int64)
    p = tau - m
    th = theta(ts)
    mmax = int(m.max())
    width = _rs_width(mmax)
    n = np.arange(1, width + 1, dtype=float)
    logn = np.log(n)
    rsq = 1.0 / np.sqrt(n)
    rsq[mmax:] = 0.0  # padding columns
    # masked rectangle th - t log n, one buffer per pass of rows; each row
    # is reduced alone, so the chunking does not change any value
    main = np.empty(len(ts))
    step = max(1, _RS_CELLS // width)
    buf = np.empty((min(step, len(ts)), width))
    for i in range(0, len(ts), step):
        rows = slice(i, min(i + step, len(ts)))
        terms = buf[: rows.stop - rows.start]
        np.multiply(ts[rows, None], logn, out=terms)
        np.subtract(th[rows, None], terms, out=terms)
        np.cos(terms, out=terms)
        terms *= rsq
        m_rows = m[rows]
        if m_rows.min() < mmax:
            terms[n > m_rows[:, None]] = 0.0
        np.sum(terms, axis=1, out=main[rows])
    main *= 2.0
    sign = np.where(m % 2 == 0, -1.0, 1.0)  # (-1)^(m+1)
    return main + sign * _rs_correction(p, tau) / np.sqrt(tau)


def _hardy_z_em_block(ts: np.ndarray) -> np.ndarray:
    """Z below the crossover: real part of e^{i theta} zeta_EM(1/2+it)."""
    vals = _zeta_em_block(np.full_like(ts, 0.5), ts)
    th = theta(ts)
    return np.real(np.exp(1j * th) * vals)


def hardy_z_many(t) -> np.ndarray:
    """Vectorized Z(t); fixed blocking, t in any order."""
    ts = _as_height_array(np.atleast_1d(np.asarray(t, dtype=float)))
    out = np.empty_like(ts)
    lo = ts < RS_CROSSOVER
    for mask, kernel in ((lo, _hardy_z_em_block), (~lo, _hardy_z_rs_block)):
        idx = np.nonzero(mask)[0]
        for i in range(0, len(idx), _BLOCK):
            blk = idx[i : i + _BLOCK]
            out[blk] = kernel(ts[blk])
    return out


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2+it), real-valued.

    Raises PrecisionError when the a-posteriori accuracy bound exceeds
    EVAL_TOL, and DomainError above MAX_HEIGHT.
    """
    tf = float(t)
    _as_height_array(tf)
    if tf > MAX_HEIGHT:
        raise DomainError(f"hardy_z requires 0 <= t <= {MAX_HEIGHT:g}")
    if tf >= RS_CROSSOVER:
        check_eval(float(rs_error_bound(tf)), f"Z({tf})")
    return float(hardy_z_many(np.array([tf]))[0])


# ----------------------------------------------------------------------
# Euler-Maclaurin zeta
# ----------------------------------------------------------------------

_EM_MAX_BERNOULLI = 500  # cap on the Bernoulli terms of one EM evaluation

# r[k] = (B_{2k+2}/(2k+2)!) / (B_{2k}/(2k)!) for 1 <= k <= _EM_MAX_BERNOULLI,
# from one vectorised zeta(2k) call (bit-identical to the scalar values);
# r[0] is unused
_z2k = real_zeta(2.0 * np.arange(1, _EM_MAX_BERNOULLI + 2))
_BERNOULLI_RATIOS = (math.nan,) + tuple((-(_z2k[1:] / _z2k[:-1]) / TWO_PI ** 2).tolist())
del _z2k


def _split_head(x: np.ndarray) -> np.ndarray:
    """x rounded to its leading 26 bits (Veltkamp split)."""
    c = 134217729.0 * x  # 2^27 + 1
    return c - (c - x)


# 2 pi = _TWO_PI_1 + _TWO_PI_2 + _TWO_PI_3 to 1e-32; the first two parts
# carry 26 bits, so k * part is exact for k < 2^27
_TWO_PI_1 = 6.283185362815857
_TWO_PI_2 = -5.563627070159782e-08
_TWO_PI_3 = 2.4492935982947064e-16


class _PrimePlan:
    """Multiplicative build order for n^{-s}, 1 <= n < limit.

    Row layout of the work array: row 0 holds n = 1, rows 1..P the primes
    in increasing order, then the composites in increasing order.  A
    composite n is built as v[spf(n)] * v[n/spf(n)], spf the smallest prime
    factor.  Composites are processed in dyadic ranges (2^j, 2^{j+1}]:
    both factors are at most n/2, so they come from earlier ranges or
    from the primes.  The plan for any N < limit is a prefix of this one.
    """

    __slots__ = ("limit", "primes", "neg_logp", "log_head", "log_tail",
                 "composites", "spf_row", "cof_row", "cof_composite", "range_ends")

    def __init__(self, limit: int):
        n = np.arange(limit)
        spf = np.zeros(limit, dtype=np.intp)
        for p in range(2, math.isqrt(max(limit - 1, 0)) + 1):
            if spf[p] == 0:
                multiples = spf[p * p :: p]
                multiples[multiples == 0] = p
        is_prime = (spf == 0) & (n >= 2)
        spf[is_prime] = n[is_prime]
        primes = n[is_prime]
        composites = n[(n >= 4) & ~is_prime]
        index = np.zeros(limit, dtype=np.intp)  # rank among primes or composites
        index[primes] = np.arange(len(primes))
        index[composites] = np.arange(len(composites))
        a = spf[composites]
        b = composites // a
        self.limit = limit
        self.primes = primes
        self.neg_logp = -np.log(primes.astype(float))
        # log p = head + tail, head with 26 bits (extended-precision tail
        # where the platform has it)
        self.log_head = _split_head(-self.neg_logp)
        self.log_tail = (np.log(primes.astype(np.longdouble)) - self.log_head).astype(float)
        self.composites = composites
        self.spf_row = 1 + index[a]
        self.cof_row = 1 + index[b]  # composite cofactors add P per call
        self.cof_composite = (~is_prime[b]).astype(np.intp)
        self.range_ends = np.searchsorted(
            composites, 2 ** np.arange(1, max(limit, 2).bit_length() + 1), side="right"
        )


_PLAN = _PrimePlan(0)  # grown on demand, replaced whole, never mutated
_SUB_BLOCK = 64  # points per pass over the (n x points) work array
_REDUCE_ROWS = 512  # rows of n per pass of the panel kernel's node sums


def _prime_plan(N: int) -> _PrimePlan:
    global _PLAN
    plan = _PLAN
    if plan.limit < N:
        plan = _PrimePlan(max(N, 2 * plan.limit, 1024))
        _PLAN = plan
    return plan


def _prime_phases(log_head: np.ndarray, log_tail: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t * log p reduced into about [-pi, pi], primes along rows and
    heights t along columns, to a few ulp of 2 pi.

    The plain product t * log p would carry an absolute error of
    eps * t * log p into every multiple of p; here head(log p) * head(t)
    is exact and 2 pi is subtracted in three parts (Cody-Waite).
    """
    t_head = _split_head(t)
    x = log_head * t_head
    k = np.rint(x * (1.0 / TWO_PI))
    x -= k * _TWO_PI_1
    x -= k * _TWO_PI_2
    x -= k * _TWO_PI_3
    x += log_head * (t - t_head)
    x += log_tail * t
    return x


def _em_rows(sigmas: np.ndarray, ts: np.ndarray, N: int):
    """The rows n^{-s} of sum_{n<N} n^{-s}, s = sigmas + i ts, built with
    one exp per prime and one multiply per composite.

    Yields (sub, v) per pass of at most _SUB_BLOCK points: v is the
    (n x points) work array for ts[sub], in the plan's row order, and is
    overwritten by the next pass.
    """
    plan = _prime_plan(N)
    P = int(np.searchsorted(plan.primes, N))
    C = int(np.searchsorted(plan.composites, N))
    spf_row = plan.spf_row[:C]
    cof_row = plan.cof_row[:C] + P * plan.cof_composite[:C]
    ends = np.minimum(plan.range_ends, C).tolist()
    ranges = [(1 + P + lo, 1 + P + hi, lo, hi)
              for lo, hi in zip([0] + ends[:-1], ends) if hi > lo]
    neg_logp = plan.neg_logp[:P, None]
    log_head = plan.log_head[:P, None]
    log_tail = plan.log_tail[:P, None]
    work = np.empty((1 + P + C, min(_SUB_BLOCK, len(ts))), dtype=complex)
    work[0] = 1.0
    for i in range(0, len(ts), _SUB_BLOCK):
        sub = slice(i, min(i + _SUB_BLOCK, len(ts)))
        v = work[:, : sub.stop - sub.start]
        primes = v[1 : 1 + P]
        np.multiply(neg_logp, sigmas[sub], out=primes.real)
        np.negative(_prime_phases(log_head, log_tail, ts[sub]), out=primes.imag)
        np.exp(primes, out=primes)
        for r0, r1, lo, hi in ranges:
            dst = v[r0:r1]
            np.take(v, spf_row[lo:hi], axis=0, out=dst)
            dst *= np.take(v, cof_row[lo:hi], axis=0)
        yield sub, v


def _em_main_sum(sigmas: np.ndarray, ts: np.ndarray, N: int) -> np.ndarray:
    """sum_{n<N} n^{-s}, s = sigmas + i ts, summed over n by a fixed-order
    numpy reduction."""
    out = np.empty(len(ts), dtype=complex)
    for sub, v in _em_rows(sigmas, ts, N):
        out[sub] = v.sum(axis=0)
    return out


def _zeta_em_block(sigmas: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """EM for one block of points; cutoff set by the block's largest t."""
    N = PrecisionConfig.em_cutoff(float(ts.max()) if len(ts) else 0.0)
    return _em_remainder(_em_main_sum(sigmas, ts, N), sigmas + 1j * ts, N)


def _em_remainder(out: np.ndarray, s: np.ndarray, N: int) -> np.ndarray:
    """Add the EM remainder N^{1-s}/(s-1) + N^{-s}/2 and the Bernoulli tail
    to the main sums `out`, in place."""
    Nf = float(N)
    out += Nf ** (1.0 - s) / (s - 1.0) + 0.5 * Nf ** (-s)
    # Bernoulli tail; a one-point block runs it in Python complex scalars,
    # which cost far less per step than numpy calls on a length-1 array
    term = (1.0 / 12.0) * s * Nf ** (-s - 1.0)
    if len(s) == 1:
        out[0] = _bernoulli_tail(complex(out[0]), complex(s[0]), complex(term[0]), Nf, abs)
        return out
    return _bernoulli_tail(out, s, term, Nf, lambda v: float(np.abs(v).max()))


def _bernoulli_tail(acc, s, term, Nf: float, absmax):
    """Add the Bernoulli terms to acc, starting from `term` (k = 1), with
    one k-loop for the whole block: it stops at the series' smallest term,
    judged by absmax over the block."""
    k = 1
    amax = absmax(term)
    while True:
        acc += term
        nxt = term * (_BERNOULLI_RATIOS[k] * ((s + (2 * k - 1)) * (s + 2 * k))) / (Nf * Nf)
        prev, amax = amax, absmax(nxt)
        if amax < 1e-17 or amax >= prev or k >= _EM_MAX_BERNOULLI:
            break
        term = nxt
        k += 1
    return acc


def em_roundoff_bound(t: float, N: int) -> float:
    """Phase round-off floor eps*t*ln N of an N-term main sum at height t."""
    return 4e-16 * (1.0 + abs(float(t))) * math.log(N + 2.0)


def em_error_bound(sigma: float, t: float) -> float:
    """A-posteriori bound for one EM evaluation: first omitted Bernoulli
    term times the standard |s+2K+1|/(sigma+2K+1) factor, plus a phase
    round-off floor eps*t*ln N."""
    t = abs(float(t))
    s = complex(sigma, t)
    N = float(PrecisionConfig.em_cutoff(t))
    term = abs((1.0 / 12.0) * s * N ** (-sigma - 1.0))
    k = 1
    while k < _EM_MAX_BERNOULLI:
        nxt = term * abs(_BERNOULLI_RATIOS[k]) * abs(s + (2 * k - 1)) * abs(s + 2 * k) / (N * N)
        if nxt >= term or nxt < 1e-18:
            term = nxt
            break
        term = nxt
        k += 1
    safety = abs(s + (2 * k + 1)) / (sigma + 2 * k + 1)
    return term * safety + em_roundoff_bound(t, int(N))


def zeta(s) -> complex:
    """zeta(sigma+it) for sigma > 0, s != 1 and |t| <= MAX_HEIGHT, by the
    fixed Euler-Maclaurin policy; the a-posteriori bound must stay below
    EVAL_TOL.

    On the critical line above the Z crossover the value is reassembled
    from the Riemann-Siegel Z, which callers should prefer anyway.
    Negative t is served by conjugation symmetry.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("zeta has a pole at s = 1")
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("s must be finite")
    if s.real <= 0.0:
        raise DomainError("evaluations require sigma > 0")
    if abs(s.imag) > MAX_HEIGHT:
        raise DomainError(f"zeta requires |t| <= {MAX_HEIGHT:g}")
    if s.imag < 0.0:
        return complex(np.conj(zeta(complex(s.real, -s.imag))))
    if s.real == 0.5 and s.imag >= RS_CROSSOVER:
        check_eval(float(rs_error_bound(s.imag)), f"Z({s.imag})")
    else:
        check_eval(em_error_bound(s.real, s.imag), f"zeta({s})")
    return _zeta_point(s.real, s.imag)


def _zeta_point(sigma: float, t: float) -> complex:
    """zeta(sigma+it) at one point, t >= 0, without the accuracy gate:
    reassembled from Z on the critical line above the crossover,
    Euler-Maclaurin elsewhere."""
    if sigma == 0.5 and t >= RS_CROSSOVER:
        z = float(hardy_z_many(np.array([t]))[0])
        return z * complex(np.exp(-1j * theta(t)))
    return complex(_zeta_em_block(np.array([sigma]), np.array([t]))[0])


def zeta_abs2_line(sigma: float, t) -> np.ndarray:
    """|zeta(sigma+it)|^2 for an array of heights on one sigma-line.

    Euler-Maclaurin at every point, one cutoff per block of _BLOCK
    points.  Quadrature on equal-width panels uses `zeta_abs2_panels`
    instead.
    """
    ts = _as_height_array(np.atleast_1d(np.asarray(t, dtype=float)))
    if sigma <= 0.0:
        raise DomainError("sigma-line evaluations require sigma > 0")
    out = np.empty(len(ts))
    for i in range(0, len(ts), _BLOCK):
        blk = slice(i, min(i + _BLOCK, len(ts)))
        vals = _zeta_em_block(np.full(blk.stop - blk.start, float(sigma)), ts[blk])
        out[blk] = np.abs(vals) ** 2
    return out


def zeta_abs2_panels(sigma: float, mids, half: float) -> np.ndarray:
    """|zeta(sigma+it)|^2 at the GK21 nodes t = mids[k] + half * x_j of
    equal-width panels, shaped (len(mids), 21).

    The Euler-Maclaurin rows n^{-sigma-i mid} are built once per panel;
    n^{-s} at node j is that row times U[n, j] = n^{-i half x_j}, one
    table shared by all the panels.  The sum over n runs in passes of
    _REDUCE_ROWS rows, each a numpy sum added in turn: a fixed order that
    keeps the product buffer small.  The remainder and the Bernoulli tail
    are added per node.  Blocks of _BLOCK // 21 panels share one cutoff,
    set by their largest node.
    """
    mids = _as_height_array(np.atleast_1d(np.asarray(mids, dtype=float)))
    if sigma <= 0.0:
        raise DomainError("sigma-line evaluations require sigma > 0")
    offsets = float(half) * _GK_X
    out = np.empty((len(mids), len(offsets)))
    step = _BLOCK // len(offsets)
    for i in range(0, len(mids), step):
        m = mids[i : i + step]
        ts = m[None, :] + offsets[:, None]  # (node, panel)
        N = PrecisionConfig.em_cutoff(float(ts.max()))
        _, u = next(_em_rows(np.zeros(len(offsets)), offsets, N))
        main = np.zeros(ts.shape, dtype=complex)
        for sub, v in _em_rows(np.full(len(m), float(sigma)), m, N):
            acc = main[:, sub]
            tmp = np.empty((min(_REDUCE_ROWS, len(v)), v.shape[1]), dtype=complex)
            for r in range(0, len(v), _REDUCE_ROWS):
                vr, ur = v[r : r + _REDUCE_ROWS], u[r : r + _REDUCE_ROWS]
                part = tmp[: len(vr)]
                for j in range(len(offsets)):
                    np.multiply(vr, ur[:, j, None], out=part)
                    acc[j] += part.sum(axis=0)
        vals = _em_remainder(main.ravel(), sigma + 1j * ts.ravel(), N)
        out[i : i + step] = (np.abs(vals) ** 2).reshape(ts.shape).T
    return out
