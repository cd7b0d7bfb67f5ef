"""Outside-in tracing of the zetalab package, installed after import.

Every public function and public method of the package modules is
replaced by a timing wrapper in every module namespace that holds it, so
calls made through `from .zeta import hardy_z_many` style imports are
seen too.  Nothing under src/ knows about the tracer.

Spans are kept on one stack per thread.  A span opened on a worker
thread with an empty stack takes as parent the innermost span open on
the main thread (the CLI op that is waiting on its thread pool).  A span's
self time is its duration minus the union of its children's intervals,
so parallel children are not counted twice against their parent.

Work counts (`em_terms`, `rs_terms`, `panels`, `evals`, `repeat_ratio`,
`bracket_tries`) are computed from the call arguments under the seed
algorithm; they are not counted inside the code.  `scanned_t` is the span
of heights at which a zero scan evaluated Z (the union of the ranges of
the `hardy_z_many` calls made under `ZeroCache.ensure`), so it follows
whatever grid the scan really evaluates.

`layer_union_s` is the time during which at least one layer span (any
span outside `cli`) was open on some thread; it cannot exceed the wall
time, however the worker threads overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# `config` does no work of its own and is left unwrapped.
MODULES = ("zeta", "argz", "gram", "quad", "moments", "ladders", "sums",
           "functionals", "fermat", "manifest", "cli")

# Seed constants behind the computed counts.
RS_CROSSOVER = 50.0
ZERO_SCAN_FLOOR = 10.0
ZERO_SCAN = "argz.ZeroCache.ensure"


class _Span:
    __slots__ = ("name", "start", "parent", "children")

    def __init__(self, name: str, start: float, parent: Optional["_Span"]):
        self.name = name
        self.start = start
        self.parent = parent
        self.children: List[tuple] = []


def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._seen: Dict[str, set] = defaultdict(set)
        self._layer_spans: List[tuple] = []

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        return any(s.name == name for s in self._stack())

    def scan_ranges(self) -> List[List[tuple]]:
        """Per thread: the t ranges collected by each open zero scan."""
        ranges = getattr(self._local, "scan_ranges", None)
        if ranges is None:
            ranges = self._local.scan_ranges = []
        return ranges

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def repeat(self, name: str, key) -> None:
        """Count a call whose arguments were already seen."""
        with self._lock:
            seen = self._seen[name]
            if key in seen:
                self.counts[name + ".repeats"] += 1
            seen.add(key)

    def enter(self, name: str) -> _Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = _Span(name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def exit(self, span: _Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        dur = end - span.start
        own = dur - _union_length(span.children)
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        is_layer = not span.name.startswith("cli.")
        outermost = span.parent is None or span.parent.name.startswith("cli.")
        with self._lock:
            if is_layer and outermost:
                self._layer_spans.append((span.start, end))
            self.calls[span.name] += 1
            self.incl_s[span.name] += dur
            self.self_s[span.name] += own

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            post = hook(tracer, *args, **kwargs) if hook is not None else None
            span = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            if post is not None:
                post(result)
            return result

        return wrapper

    def report(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
            out[name + ".incl_s"] = self.incl_s[name]
        out.update(self.counts)
        out["trace.layer_union_s"] = _union_length(self._layer_spans)
        return out


# ----------------------------------------------------------------------
# Argument hooks.  Each mirrors the seed signature of the function it
# counts for, so a signature change fails loudly instead of miscounting.
# A hook may return a callable that receives the result.
# ----------------------------------------------------------------------

def _size(t) -> int:
    return int(np.size(t))


def _zeta_abs2_line(tr, sigma, t, config=None):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    name = "zeta.zeta_abs2_line"
    tr.add(name + ".points", ts.size)
    if sigma != 0.5 and ts.size:
        cfg = config if config is not None else _default_config()
        margin = np.maximum(cfg.em_margin_base, np.ceil(cfg.em_margin_scale * np.sqrt(ts)))
        n_cut = np.ceil(ts / (2.0 * math.pi)) + margin
        tr.add(name + ".em_terms", float(np.sum(n_cut - 1.0)))


def _hardy_z_many(tr, t, config=None):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    name = "zeta.hardy_z_many"
    tr.add(name + ".points", ts.size)
    scans = tr.scan_ranges()
    if scans and ts.size:
        scans[-1].append((float(ts.min()), float(ts.max())))
    hi = ts[ts >= RS_CROSSOVER]
    tr.add(name + ".rs_terms", float(np.sum(np.floor(np.sqrt(hi / (2.0 * math.pi))))))


def _theta(tr, t):
    tr.add("zeta.theta.points", _size(t))


def _gram_points(tr, nu_lo, nu_hi, config=None):
    tr.add("gram.gram_points.points", nu_hi - nu_lo + 1)


def _integrate_panels(tr, f, a, b, width, order=8):
    if a != b:
        panels = max(1, int(math.ceil((b - a) / width)))
        tr.add("quad.integrate_panels.panels", panels)
        tr.add("quad.integrate_panels.evals", 3 * order * panels)


def _gauss_panels(tr, a, b, width, order):
    if tr.active("ladders.reverse_iterate"):
        tr.add("ladders.reverse_iterate.bracket_tries", 1)


def _zero_cache_ensure(tr, self, t_max):
    before = self.t_max
    scans = tr.scan_ranges()
    ranges: List[tuple] = []
    scans.append(ranges)

    def post(_result):
        scans.pop()
        after = self.t_max
        if after > before:
            tr.add(ZERO_SCAN + ".scans", 1)
            tr.add(ZERO_SCAN + ".new_t", after - max(before, ZERO_SCAN_FLOOR))
        tr.add(ZERO_SCAN + ".scanned_t", _union_length(ranges))
    return post


def _value_many(tr, self, t):
    tr.add("argz.S1Evaluator.value_many.points", _size(t))


def _second_moment_critical(tr, t_lo, t_hi, config=None):
    key = (float(t_lo), float(t_hi), repr(config or _default_config()))
    tr.repeat("moments.second_moment_critical", key)


def _reverse_iterate(tr, T, config=None):
    tr.repeat("ladders.reverse_iterate", (float(T), repr(config or _default_config())))


def _write_csv(tr, path, header, rows):
    def post(_result):
        tr.add("manifest.write_csv.bytes", os.path.getsize(path))
    return post


def _cli_main(tr, argv=None):
    cpu0 = time.process_time()

    def post(_result):
        tr.add("cli.cpu_s", time.process_time() - cpu0)
    return post


HOOKS = {
    "zeta.zeta_abs2_line": _zeta_abs2_line,
    "zeta.hardy_z_many": _hardy_z_many,
    "zeta.theta": _theta,
    "gram.gram_points": _gram_points,
    "quad.integrate_panels": _integrate_panels,
    "quad.gauss_panels": _gauss_panels,
    ZERO_SCAN: _zero_cache_ensure,
    "argz.S1Evaluator.value_many": _value_many,
    "moments.second_moment_critical": _second_moment_critical,
    "ladders.reverse_iterate": _reverse_iterate,
    "manifest.write_csv": _write_csv,
    "cli.main": _cli_main,
}


def _default_config():
    return importlib.import_module("zetalab.config").DEFAULT_CONFIG


def _public_targets(mod) -> Dict[str, tuple]:
    """name -> (owner, attribute, function) for the module's own public
    functions and the public methods of the classes it defines."""
    short = mod.__name__.rsplit(".", 1)[1]
    found = {}
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            found[f"{short}.{attr}"] = (mod, attr, obj)
        elif inspect.isclass(obj):
            for m_attr, m_obj in vars(obj).items():
                if not m_attr.startswith("_") and inspect.isfunction(m_obj):
                    found[f"{short}.{obj.__name__}.{m_attr}"] = (obj, m_attr, m_obj)
    return found


def install() -> Tracer:
    """Wrap the package in place; raises if any wrapper patched nothing."""
    tracer = Tracer()
    modules = [importlib.import_module(f"zetalab.{m}") for m in MODULES]
    namespaces = modules + [importlib.import_module("zetalab")]
    targets: Dict[str, tuple] = {}
    for mod in modules:
        targets.update(_public_targets(mod))
    missing = sorted(set(HOOKS) - set(targets))
    if missing:
        raise RuntimeError(f"traced functions not found in the package: {missing}")
    for name, (owner, attr, fn) in targets.items():
        wrapper = tracer.wrap(name, fn, HOOKS.get(name))
        patched = 0
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            patched = 1
        else:
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, key, wrapper)
                        patched += 1
        if patched == 0:
            raise RuntimeError(f"wrapper for {name} patched no call site")
    return tracer
