"""Interval moments of |zeta|^2 and |S1|^{2l}, and the empirical c-bar(l).

c-bar(l) has no closed form available here; it is fitted from a window
moment and always reported together with its sub-window spread, then
persisted to a small JSON constants cache for downstream consumers.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .argz import shared_s1_evaluator
from .config import CacheMissError, DomainError, PoleError, check_eval
from .quad import (
    _GK_X, _nodes, check_error, critical_panel_width, integrate_panels, kronrod_sums,
    sigma_panel_runs,
)
from .zeta import (
    MAX_HEIGHT, RS_CROSSOVER, em_error_bound, hardy_z_many, rs_error_bound, zeta_abs2_panels,
)

# Window-exponent constraint T^a <= H <= T from the Selberg-moment
# formula, with a fixed once for reproducibility.
CBAR_WINDOW_EXPONENT = 0.6


@dataclass(frozen=True)
class MomentEstimate:
    t_lo: float
    t_hi: float
    kind: str  # "critical2" | "sigma2" | "s1moment"
    param: Optional[float]  # sigma for sigma2, l for s1moment
    value: float
    per_unit: float
    quad_error: float


@dataclass(frozen=True)
class CbarEstimate:
    l: int
    T: float
    H: float
    cbar: float
    spread: float  # max deviation of the four sub-window estimates

    @property
    def cache_key(self) -> str:
        return _cbar_key(self.l, self.T, self.H)


def _cbar_key(l: int, T: float, H: float) -> str:
    """The constants-cache key of a c-bar fit."""
    return f"cbar/l={int(l)}/T={float(T):.15g}/H={float(H):.15g}"


def _finish(t_lo: float, t_hi: float, kind: str, param, value: float, err: float) -> MomentEstimate:
    width = t_hi - t_lo
    per_unit = value / width if width > 0 else 0.0
    return MomentEstimate(
        t_lo=t_lo, t_hi=t_hi, kind=kind, param=param,
        value=value, per_unit=per_unit, quad_error=err,
    )


def _check_window(t_lo: float, t_hi: float) -> None:
    if not (0.0 <= t_lo <= t_hi <= MAX_HEIGHT):
        raise DomainError(f"need 0 <= t_lo <= t_hi <= {MAX_HEIGHT:g}")


def check_sigma(sigma: float) -> None:
    """The domain of the sigma-line moment: finite sigma >= 1/2 + 0.01."""
    if not (0.51 <= sigma < math.inf):
        raise DomainError("sigma must be finite and >= 1/2 + 0.01")


def second_moment_critical(t_lo: float, t_hi: float) -> MomentEstimate:
    """Hardy-Littlewood integral of Z(t)^2 over [t_lo, t_hi]."""
    _check_window(t_lo, t_hi)
    if t_lo == t_hi:
        return _finish(t_lo, t_hi, "critical2", None, 0.0, 0.0)
    if t_hi >= RS_CROSSOVER:
        check_eval(float(rs_error_bound(t_hi)), f"Z on [{t_lo}, {t_hi}]")
    width = critical_panel_width(t_hi)

    def f(ts: np.ndarray) -> np.ndarray:
        z = hardy_z_many(ts)
        return z * z

    value, err = check_error(*integrate_panels(f, t_lo, t_hi, width, order=8), what="critical2")
    return _finish(t_lo, t_hi, "critical2", None, value, err)


def second_moment_sigma(sigma: float, t_lo: float, t_hi: float) -> MomentEstimate:
    """Second moment of |zeta(sigma+it)| over [t_lo, t_hi], sigma >= 0.51.

    GK21 on the panels of `sigma_panel_runs`: two mean zero gaps wide,
    graded toward the pole.  |zeta|^2 comes from `zeta_abs2_panels`, which
    builds one Euler-Maclaurin row per panel and reaches the panel's 21
    nodes through a table shared by its run.  quad_error is the
    |K21 - G10| sum.
    """
    check_sigma(sigma)
    _check_window(t_lo, t_hi)
    if t_lo == t_hi:
        return _finish(t_lo, t_hi, "sigma2", sigma, 0.0, 0.0)
    if sigma == 1.0 and t_lo == 0.0:
        raise PoleError(f"[{t_lo}, {t_hi}] meets the pole s = 1; the moment diverges")
    check_eval(em_error_bound(sigma, t_hi), f"zeta({sigma}+it) on [{t_lo}, {t_hi}]")

    runs = sigma_panel_runs(sigma, t_lo, t_hi)
    halves = np.concatenate([np.full(len(mids), half) for mids, half in runs])
    with np.errstate(over="ignore", invalid="ignore"):  # check_error rejects inf and nan
        vals = np.concatenate([zeta_abs2_panels(sigma, mids, half) for mids, half in runs])
        value, err = check_error(*kronrod_sums(vals, halves), what="sigma2")
    return _finish(t_lo, t_hi, "sigma2", sigma, value, err)


def _split_gaps(edges: np.ndarray) -> np.ndarray:
    """Split each gap of width d into floor(d/2) + 1 equal panels, so no
    panel is 2.0 wide (up to the rounding of the split points) and the
    panel degree stays adequate."""
    gaps = np.diff(edges)
    parts = (gaps // 2.0).astype(np.int64) + 1
    gap = np.repeat(np.arange(gaps.size), parts)
    j = np.arange(gap.size) - np.repeat(np.cumsum(parts) - parts, parts)
    return np.append(edges[gap] + gaps[gap] * j / parts[gap], edges[-1])


def s1_moment(l: int, t_lo: float, t_hi: float) -> MomentEstimate:
    """integral of |S1(t)|^{2l} over [t_lo, t_hi].

    S1 is piecewise smooth with kinks exactly at the zero ordinates, so
    panels are the zero gaps (split to less than 2.0 wide) and nodes never
    straddle a kink.  GK21 on each panel, all nodes in one `value_many`
    call; quad_error is the |K21 - G10| sum.
    """
    if l < 1:
        raise DomainError("l must be >= 1")
    _check_window(t_lo, t_hi)
    if t_lo == t_hi:
        return _finish(t_lo, t_hi, "s1moment", float(l), 0.0, 0.0)
    ev = shared_s1_evaluator()
    edges = _split_gaps(np.concatenate([[t_lo], ev.zeros_in(t_lo, t_hi), [t_hi]]))
    nodes, half = _nodes(edges[:-1], edges[1:], _GK_X)
    with np.errstate(over="ignore", invalid="ignore"):  # check_error rejects inf and nan
        vals = np.abs(ev.value_many(nodes.ravel()).reshape(nodes.shape)) ** (2 * l)
        value, err = check_error(*kronrod_sums(vals, half), what="s1moment")
    return _finish(t_lo, t_hi, "s1moment", float(l), value, err)


def estimate_cbar(
    l: int,
    T: float,
    H: float,
    cache: Optional["ConstantsCache"] = None,
) -> CbarEstimate:
    """Empirical Selberg-moment constant: moment over [T, T+H] divided by H.

    Enforces the window constraint T^a <= H <= T (a = 0.6), reports the
    spread across four equal sub-windows, and persists the estimate to
    the constants cache (the default one honours $ZLAB_CACHE_DIR).  The
    whole-window call prepares the S1 tables up to T + H, so the four
    sub-windows read the same table generation.
    """
    if l < 1:
        raise DomainError("l must be >= 1")
    if not (0 < T < math.inf and 0 < H < math.inf):
        raise DomainError("T and H must be positive and finite")
    if not (T ** CBAR_WINDOW_EXPONENT <= H <= T):
        raise DomainError(
            f"window constraint violated: need T^{CBAR_WINDOW_EXPONENT} <= H <= T"
        )
    cbar = s1_moment(l, T, T + H).value / H
    spread = max(abs(s1_moment(l, T + j * H / 4.0, T + (j + 1) * H / 4.0).value / (H / 4.0)
                     - cbar) for j in range(4))
    est = CbarEstimate(l=int(l), T=float(T), H=float(H), cbar=float(cbar), spread=float(spread))
    (cache if cache is not None else ConstantsCache()).put(est)
    return est


_PUT_LOCK = threading.Lock()


class ConstantsCache:
    """JSON file of fitted constants, keyed "cbar/l=<l>/T=<T>/H=<H>".

    Location: explicit path, else $ZLAB_CACHE_DIR/constants.json, else
    ./.zetalab_cache/constants.json.
    """

    def __init__(self, path: Optional[str] = None):
        if path is None:
            base = os.environ.get("ZLAB_CACHE_DIR", ".zetalab_cache")
            path = os.path.join(base, "constants.json")
        self.path = Path(path)

    def _load(self) -> dict:
        if not self.path.exists():
            return {}
        try:
            with open(self.path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError) as e:
            raise CacheMissError(f"cannot read constants cache {self.path}: {e}") from None
        if not isinstance(data, dict):
            raise CacheMissError(f"constants cache {self.path} is not a JSON object")
        return data

    def put(self, est: CbarEstimate) -> str:
        # write a sibling temp file and rename it over the old one, so an
        # interrupted write never leaves truncated JSON behind; the read,
        # update and rename hold a thread lock and an flock on a sibling
        # .lock file, so concurrent writers never drop each other's keys
        tmp = self.path.with_name(
            f".{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with _PUT_LOCK, open(self.path.with_name(self.path.name + ".lock"), "a") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                data = self._load()
                data[est.cache_key] = {
                    "cbar": est.cbar,
                    "spread": est.spread,
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                }
                with open(tmp, "w", encoding="utf-8") as f:
                    json.dump(data, f, indent=2, sort_keys=True)
                os.replace(tmp, self.path)
        except OSError as e:
            raise DomainError(f"cannot write constants cache {self.path}: {e}") from None
        finally:
            if tmp.exists():
                tmp.unlink()
        return est.cache_key

    def get(self, l: int, T: float, H: float) -> Optional[CbarEstimate]:
        key = _cbar_key(l, T, H)
        rec = self._load().get(key)
        if rec is None:
            return None
        if not (isinstance(rec, dict) and all(
                type(rec.get(k)) in (int, float) and math.isfinite(rec[k])
                for k in ("cbar", "spread"))):
            raise CacheMissError(
                f"constants cache {self.path} holds no finite cbar and spread for {key}"
            )
        return CbarEstimate(l=int(l), T=float(T), H=float(H), cbar=float(rec["cbar"]),
                            spread=float(rec["spread"]))

    def keys(self) -> List[str]:
        return sorted(self._load().keys())
