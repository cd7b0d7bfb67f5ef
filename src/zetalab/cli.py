"""Command-line orchestration: run computations, emit CSV + manifest.

Exit codes: 0 success, 2 flag/validation errors, 3 computation errors,
4 precision errors.  Runners call the library through this module's
names at call time, so anything patched onto those attributes sees it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__, verify
from .argz import s_of_t
from .config import CacheMissError, DomainError, PrecisionError, ZetaLabError
from .fermat import fermat_equivalence_check
from .functionals import chain_compare, functional_approximant, substitution_constant
from .gram import gram_range
from .ladders import ladder_chain
from .manifest import RunManifest, csv_cells, write_csv
from .moments import CbarEstimate, ConstantsCache, estimate_cbar, s1_moment
from .moments import second_moment_critical, second_moment_sigma
from .sums import fourth_power_sum, titchmarsh_sum
from .zeta import hardy_z, theta, theta_deriv

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_COMPUTE = 3
EXIT_PRECISION = 4


def _float_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], why: str):
    """An argparse type: `parse`, then reject a value that is not `ok`."""
    def convert(text: str) -> Any:
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(why)
        return value
    convert.__name__ = parse.__name__  # argparse's "invalid <type> value" message
    return convert


_nonempty_float_list = _checked(_float_list, bool, "expected at least one number")
_positive_int = _checked(int, lambda n: n >= 1, "must be >= 1")
_nonnegative_int = _checked(int, lambda n: n >= 0, "must be >= 0")


def _flag(*names: str, **kw: Any) -> Tuple[Tuple[str, ...], Dict[str, Any]]:
    """One `add_argument` call, kept as data."""
    return names, kw


_COMMON = [
    _flag("--out", help="CSV output path"),
    _flag("--manifest", default="zetalab_manifest.jsonl",
          help="append-only run manifest (JSON lines)"),
    _flag("--jobs", type=_positive_int, default=1,
          help="accepted and ignored: every command runs in one thread"),
    _flag("--cache-dir", default=".zetalab_cache", help="constants-cache directory"),
]
# argparse reads "-1,2" as an option, so such a list must be joined to its flag
_LIST_HELP = "comma-separated numbers; join a list whose first item starts with '-' as {}=-0,100.5"
_T = _flag("--t", type=_nonempty_float_list, required=True, help=_LIST_HELP.format("--t"))
_SPAN = (_flag("--from", dest="t_lo", type=float, required=True),
         _flag("--to", dest="t_hi", type=float, required=True))

# name -> (help, flags, runner); runner(args, cache, manifest) -> (header, rows)
_COMMANDS: Dict[str, Tuple[str, Sequence, Callable]] = {}


def _command(name: str, help: str, *flags):
    def register(run):
        _COMMANDS[name] = (help, flags, run)
        return run
    return register


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetalab", description="Desk-scale numerical laboratory for critical-line statistics.")
    ap.add_argument("--version", action="version", version=f"zetalab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    for names, kw in _COMMON:
        common.add_argument(*names, **kw)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help)
        for names, kw in flags:
            p.add_argument(*names, **kw)
    return ap


def _need_cbar(args, cache: ConstantsCache, manifest: RunManifest) -> CbarEstimate:
    if args.l is None:
        raise DomainError("kind B requires --l")
    if args.cbar_T is None or args.cbar_H is None:
        raise CacheMissError("kind B requires --cbar-T and --cbar-H (run `cbar` first)")
    est = cache.get(args.l, args.cbar_T, args.cbar_H)
    if est is None:
        raise CacheMissError(f"no cached cbar for l={args.l}, T={args.cbar_T}, "
                             f"H={args.cbar_H}; run `cbar` first")
    manifest.add_cbar_key(est.cache_key)
    return est


@_command("theta", "theta(t) and its derivative", _T)
def _theta(args, cache, manifest):
    return (["t", "theta", "theta_deriv"],
            [(t, theta(t), theta_deriv(t) if t > 2 * math.pi else None) for t in args.t])


@_command("z", "Hardy Z(t)", _T)
def _z(args, cache, manifest):
    return ["t", "Z"], zip(args.t, map(hardy_z, args.t))


@_command("s", "S(t) traces", _T)
def _s(args, cache, manifest):
    return (["t", "S", "zero_count", "branch_residual"],
            [(t, tr.s_value, tr.zero_count, tr.branch_residual)
             for t, tr in zip(args.t, map(s_of_t, args.t))])


@_command("gram", "Gram points in [from, to)", *_SPAN)
def _gram(args, cache, manifest):
    return (["nu", "t", "residual"],
            [(p.nu, p.t, p.residual) for p in gram_range(args.t_lo, args.t_hi)])


@_command("moments", "interval moments",
          _flag("--kind", choices=["critical2", "sigma2", "s1moment"], required=True),
          *_SPAN,
          _flag("--sigma", type=float),
          _flag("--l", type=int))
def _moments(args, cache, manifest):
    if args.kind == "critical2":
        param = None
        est = second_moment_critical(args.t_lo, args.t_hi)
    elif args.kind == "sigma2":
        if args.sigma is None:
            raise DomainError("sigma2 requires --sigma")
        param = args.sigma
        est = second_moment_sigma(args.sigma, args.t_lo, args.t_hi)
    else:
        if args.l is None:
            raise DomainError("s1moment requires --l")
        param = float(args.l)
        est = s1_moment(args.l, args.t_lo, args.t_hi)
    width = args.t_hi - args.t_lo
    per_unit = est.value / width if width > 0 else 0.0
    return (["kind", "param", "t_lo", "t_hi", "value", "per_unit", "quad_error"],
            [(args.kind, param, args.t_lo, args.t_hi, est.value, per_unit, est.quad_error)])


@_command("cbar", "estimate cbar(l) on [T, T+H]",
          _flag("--l", type=int, required=True),
          _flag("--T", type=float, required=True),
          _flag("--H", type=float, required=True))
def _cbar(args, cache, manifest):
    est = estimate_cbar(args.l, args.T, args.H)
    manifest.add_cbar_key(cache.put(est))
    return ["l", "T", "H", "cbar", "spread"], [(est.l, est.T, est.H, est.cbar, est.spread)]


@_command("ladder", "reverse-iteration chain",
          _flag("--T", type=float, required=True),
          _flag("--k", type=int, default=1))
def _ladder(args, cache, manifest):
    chain = ladder_chain(args.T, args.k)
    hs = [args.T] + chain.iterates
    return (["r", "T_r", "gap", "slice_integral", "residual"],
            [(r, u, u - t, got, resid) for r, (t, u, got, resid)
             in enumerate(zip(hs, hs[1:], chain.slices, chain.residuals), 1)])


@_command("sum", "Gram pair / fourth-power sums",
          _flag("--kind", choices=["pair", "fourth"], required=True),
          *_SPAN)
def _sum(args, cache, manifest):
    res = (titchmarsh_sum if args.kind == "pair" else fourth_power_sum)(args.t_lo, args.t_hi)
    return (["kind", "T", "terms", "value", "main_term", "ratio"],
            [(args.kind, args.t_lo, res.terms, res.value, res.main_term, res.ratio)])


@_command("functional", "cross-bred functional value",
          _flag("--kind", choices=["A", "B", "C"], required=True),
          _flag("--x", type=float, required=True),
          _flag("--tau", type=_nonempty_float_list, required=True, help=_LIST_HELP.format("--tau")),
          _flag("--sigma", type=float),
          _flag("--l", type=int),
          _flag("--cbar-T", type=float, help="cache key part for kind B"),
          _flag("--cbar-H", type=float, help="cache key part for kind B"))
def _functional(args, cache, manifest):
    if args.kind in ("A", "C") and args.sigma is None:
        raise DomainError(f"kind {args.kind} requires --sigma")
    cbar = _need_cbar(args, cache, manifest) if args.kind == "B" else None
    K = substitution_constant(args.kind, sigma=args.sigma, cbar=cbar)
    manifest.add_constant(f"substitution_K_{args.kind}", K)
    results = [functional_approximant(args.kind, args.x, tau, sigma=args.sigma, l=args.l,
                                      cbar=cbar) for tau in args.tau]
    param = float(args.l) if args.kind == "B" else args.sigma
    return (["kind", "x", "param", "tau", "T", "value", "rel_err"],
            [(args.kind, args.x, param, tau, r.T, r.value, r.rel_err)
             for tau, r in zip(args.tau, results)])


@_command("fermat", "Fermat witness with functional trace",
          _flag("--x", type=int, required=True),
          _flag("--y", type=int, required=True),
          _flag("--z", type=int, required=True),
          _flag("--n", type=int, required=True),
          _flag("--kind", choices=["A", "B", "C"], default="C"),
          _flag("--sigma", type=float, default=1.0),
          _flag("--l", type=int),
          _flag("--cbar-T", type=float),
          _flag("--cbar-H", type=float),
          _flag("--tau", type=_float_list, default=[], help=_LIST_HELP.format("--tau")))
def _fermat(args, cache, manifest):
    cbar = _need_cbar(args, cache, manifest) if args.kind == "B" else None
    w = fermat_equivalence_check(args.x, args.y, args.z, args.n, kind=args.kind, sigma=args.sigma,
                                 l=args.l, cbar=cbar, tau_schedule=args.tau)
    return (["x", "y", "z", "n", "numerator", "denominator", "is_one", "verdict"],
            [(args.x, args.y, args.z, args.n, w.numerator, w.denominator, w.is_one_exact,
              w.verdict)])


@_command("chain", "compare functionals A, B, C",
          _flag("--x", type=float, required=True),
          _flag("--sigma", type=float, default=1.0),
          _flag("--l", type=int, default=1),
          _flag("--tau", type=float, required=True),
          _flag("--cbar-T", type=float, required=True),
          _flag("--cbar-H", type=float, required=True))
def _chain(args, cache, manifest):
    est = _need_cbar(args, cache, manifest)
    rows = chain_compare(args.x, args.sigma, args.l, args.tau, est).items()
    return ["kind", "T", "value", "rel_err"], [(k, r.T, r.value, r.rel_err) for k, r in rows]


# name -> suite(args)
_SUITES: Dict[str, Callable[..., List[verify.Check]]] = {
    "asymptotics": lambda args: verify.asymptotics(args.heights),
    "gram": lambda args: verify.gram(args.nu_max),
    "branch": lambda args: verify.branch(args.n_heights, args.seed),
    "ladder": lambda args: verify.ladder(args.heights),
    "quotients": lambda args: verify.quotients(args.heights),
}


@_command("verify", "PASS/FAIL property suites",
          _flag("--suite", choices=list(_SUITES), default="asymptotics"),
          _flag("--heights", type=_float_list, default=[1e3, 5e3, 2e4],
                help=_LIST_HELP.format("--heights")),
          _flag("--nu-max", type=int, default=20000),
          _flag("--n-heights", type=int, default=25),
          _flag("--seed", type=_nonnegative_int, default=20260809))
def _verify(args, cache, manifest):
    checks = _SUITES[args.suite](args)
    return (["check", "status", "detail"],
            [(name, "PASS" if ok else "FAIL", detail) for name, ok, detail in checks])


def _write(path: str, write: Callable[..., Any], *rest: Any) -> Any:
    try:
        return write(path, *rest)
    except OSError as e:
        raise DomainError(f"cannot write {path}: {e}") from None


def _run(args, raw_argv: Sequence[str]) -> int:
    """Run the command, print its rows, write them under its header to --out and
    append the manifest; rows with status FAIL (a check suite) make the exit 3."""
    manifest = RunManifest(raw_argv)
    cache = ConstantsCache(os.path.join(args.cache_dir, "constants.json"))
    header, rows = _COMMANDS[args.command][2](args, cache, manifest)
    rows = csv_cells(rows)
    for row in rows:
        print(",".join(row))
    if args.out:
        manifest.add_output(args.out, _write(args.out, write_csv, header, rows))
    _write(args.manifest, manifest.write)
    if "status" in header and "FAIL" in (row[header.index("status")] for row in rows):
        return EXIT_COMPUTE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = _build_parser().parse_args(raw)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_FLAGS
    try:
        return _run(args, raw)
    except PrecisionError as e:
        print(f"precision error: {e}", file=sys.stderr)
        return EXIT_PRECISION
    except (DomainError, CacheMissError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FLAGS
    except ZetaLabError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
