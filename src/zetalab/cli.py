"""Command-line orchestration: run computations, emit CSV + manifest.

Exit codes: 0 success, 2 flag/validation errors, 3 computation errors,
4 precision errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable, List, Optional, Sequence

from . import __version__, verify
from .argz import s_of_t
from .config import (
    CacheMissError,
    DEFAULT_CONFIG,
    DomainError,
    PrecisionConfig,
    PrecisionError,
    ZetaLabError,
)
from .fermat import fermat_equivalence_check
from .functionals import chain_compare, functional_approximant, substitution_constant
from .gram import gram_range
from .ladders import ladder_chain
from .manifest import RunManifest, csv_cells, write_csv
from .moments import (
    CbarEstimate,
    ConstantsCache,
    estimate_cbar,
    s1_moment,
    second_moment_critical,
    second_moment_sigma,
)
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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetalab",
        description="Desk-scale numerical laboratory for critical-line statistics.",
    )
    ap.add_argument("--version", action="version", version=f"zetalab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with PrecisionConfig overrides")
    common.add_argument("--out", help="CSV output path")
    common.add_argument("--manifest", default="zetalab_manifest.jsonl",
                        help="append-only run manifest (JSON lines)")
    common.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker threads for independent items (results identical at any value)")
    common.add_argument("--cache-dir", help="constants-cache directory (else $ZLAB_CACHE_DIR)")

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", parents=[common], help="theta(t) and its derivative")
    p.add_argument("--t", type=_float_list, required=True)

    p = sub.add_parser("z", parents=[common], help="Hardy Z(t)")
    p.add_argument("--t", type=_float_list, required=True)

    p = sub.add_parser("s", parents=[common], help="S(t) traces")
    p.add_argument("--t", type=_float_list, required=True)

    p = sub.add_parser("gram", parents=[common], help="Gram points in [from, to)")
    p.add_argument("--from", dest="t_lo", type=float, required=True)
    p.add_argument("--to", dest="t_hi", type=float, required=True)

    p = sub.add_parser("moments", parents=[common], help="interval moments")
    p.add_argument("--kind", choices=["critical2", "sigma2", "s1moment"], required=True)
    p.add_argument("--from", dest="t_lo", type=float, required=True)
    p.add_argument("--to", dest="t_hi", type=float, required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--l", type=int)

    p = sub.add_parser("cbar", parents=[common], help="estimate cbar(l) on [T, T+H]")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--H", type=float, required=True)

    p = sub.add_parser("ladder", parents=[common], help="reverse-iteration chain")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("sum", parents=[common], help="Gram pair / fourth-power sums")
    p.add_argument("--kind", choices=["pair", "fourth"], required=True)
    p.add_argument("--from", dest="t_lo", type=float, required=True)
    p.add_argument("--to", dest="t_hi", type=float, required=True)

    p = sub.add_parser("functional", parents=[common], help="cross-bred functional value")
    p.add_argument("--kind", choices=["A", "B", "C"], required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--tau", type=_float_list, required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--l", type=int)
    p.add_argument("--cbar-T", type=float, help="cache key part for kind B")
    p.add_argument("--cbar-H", type=float, help="cache key part for kind B")

    p = sub.add_parser("fermat", parents=[common], help="Fermat witness with functional trace")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["A", "B", "C"], default="C")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--l", type=int)
    p.add_argument("--cbar-T", type=float)
    p.add_argument("--cbar-H", type=float)
    p.add_argument("--tau", type=_float_list, default=[])

    p = sub.add_parser("chain", parents=[common], help="compare functionals A, B, C")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--cbar-T", type=float, required=True)
    p.add_argument("--cbar-H", type=float, required=True)

    p = sub.add_parser("verify", parents=[common], help="PASS/FAIL property suites")
    p.add_argument("--suite",
                   choices=["asymptotics", "gram", "branch", "ladder", "quotients"],
                   default="asymptotics")
    p.add_argument("--heights", type=_float_list, default=[1e3, 5e3, 2e4])
    p.add_argument("--nu-max", type=int, default=20000)
    p.add_argument("--n-heights", type=int, default=25)
    p.add_argument("--seed", type=int, default=20260809)

    return ap


def _cache(args) -> ConstantsCache:
    if args.cache_dir:
        return ConstantsCache(os.path.join(args.cache_dir, "constants.json"))
    return ConstantsCache()


def _need_cbar(args, cache: ConstantsCache, manifest: RunManifest) -> CbarEstimate:
    if args.l is None:
        raise DomainError("kind B requires --l")
    if args.cbar_T is None or args.cbar_H is None:
        raise CacheMissError("kind B requires --cbar-T and --cbar-H (run `cbar` first)")
    est = cache.get(args.l, args.cbar_T, args.cbar_H)
    if est is None:
        raise CacheMissError(
            f"no cached cbar for l={args.l}, T={args.cbar_T}, H={args.cbar_H}; run `cbar` first"
        )
    manifest.add_cbar_key(est.cache_key)
    return est


def _emit(manifest: RunManifest, args, header: Sequence[str],
          rows: Iterable[Sequence[Any]]) -> None:
    """Print the rows' CSV cells, write them under `header` to --out, and
    append the manifest."""
    rows = csv_cells(rows)
    for row in rows:
        print(",".join(row))
    if args.out:
        digest = write_csv(args.out, header, rows)
        manifest.add_output(args.out, digest)
    manifest.write(args.manifest)


def _pmap(jobs: int, fn, items: Sequence):
    """Order-preserving parallel map; results identical at any jobs value."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _run(args, raw_argv: Sequence[str]) -> int:
    config = PrecisionConfig.from_json(args.config) if args.config else DEFAULT_CONFIG
    manifest = RunManifest(raw_argv, config)
    cache = _cache(args)

    if args.command == "theta":
        _emit(manifest, args, ["t", "theta", "theta_deriv"],
              [(t, theta(t), theta_deriv(t) if t > 2 * math.pi else None) for t in args.t])

    elif args.command == "z":
        vals = _pmap(args.jobs, lambda t: hardy_z(t, config), args.t)
        _emit(manifest, args, ["t", "Z"], zip(args.t, vals))

    elif args.command == "s":
        traces = _pmap(args.jobs, lambda t: s_of_t(t, config), args.t)
        _emit(manifest, args, ["t", "S", "zero_count", "branch_residual"],
              [(tr.t, tr.s_value, tr.zero_count, tr.branch_residual) for tr in traces])

    elif args.command == "gram":
        rng = gram_range(args.t_lo, args.t_hi, config)
        _emit(manifest, args, ["nu", "t", "residual"],
              [(p.nu, p.t, p.residual) for p in rng.points])

    elif args.command == "moments":
        if args.kind == "critical2":
            est = second_moment_critical(args.t_lo, args.t_hi, config)
        elif args.kind == "sigma2":
            if args.sigma is None:
                raise DomainError("sigma2 requires --sigma")
            est = second_moment_sigma(args.sigma, args.t_lo, args.t_hi, config)
        else:
            if args.l is None:
                raise DomainError("s1moment requires --l")
            est = s1_moment(args.l, args.t_lo, args.t_hi, config)
        _emit(manifest, args,
              ["kind", "param", "t_lo", "t_hi", "value", "per_unit", "quad_error"],
              [(est.kind, est.param, est.t_lo, est.t_hi, est.value, est.per_unit,
                est.quad_error)])

    elif args.command == "cbar":
        est = estimate_cbar(args.l, args.T, args.H, config, cache=cache)
        manifest.add_cbar_key(est.cache_key)
        _emit(manifest, args, ["l", "T", "H", "cbar", "spread"],
              [(est.l, est.T, est.H, est.cbar, est.spread)])

    elif args.command == "ladder":
        chain = ladder_chain(args.T, args.k, config)
        hs = chain.heights()
        _emit(manifest, args, ["r", "T_r", "gap", "slice_integral", "residual"],
              [(r, u, u - t, got, resid) for r, (t, u, got, resid)
               in enumerate(zip(hs, hs[1:], chain.slices, chain.residuals), 1)])

    elif args.command == "sum":
        res = (titchmarsh_sum if args.kind == "pair" else fourth_power_sum)(
            args.t_lo, args.t_hi, config)
        _emit(manifest, args, ["kind", "T", "terms", "value", "main_term", "ratio"],
              [(res.kind, res.t_lo, res.terms, res.value, res.main_term, res.ratio)])

    elif args.command == "functional":
        if args.kind in ("A", "C") and args.sigma is None:
            raise DomainError(f"kind {args.kind} requires --sigma")
        cbar = _need_cbar(args, cache, manifest) if args.kind == "B" else None
        K = substitution_constant(args.kind, sigma=args.sigma, cbar=cbar)
        manifest.add_constant(f"substitution_K_{args.kind}", K)

        def one(tau: float):
            return functional_approximant(
                args.kind, args.x, tau, sigma=args.sigma, l=args.l,
                cbar=cbar, config=config)

        results = _pmap(args.jobs, one, args.tau)
        _emit(manifest, args, ["kind", "x", "param", "tau", "T", "value", "rel_err"],
              [(r.kind, r.x, r.param, r.tau, r.T, r.value, r.rel_err) for r in results])

    elif args.command == "fermat":
        cbar = _need_cbar(args, cache, manifest) if args.kind == "B" else None
        w = fermat_equivalence_check(
            args.x, args.y, args.z, args.n, kind=args.kind, sigma=args.sigma,
            l=args.l, cbar=cbar, tau_schedule=args.tau, config=config)
        _emit(manifest, args,
              ["x", "y", "z", "n", "numerator", "denominator", "is_one", "verdict"],
              [(w.x, w.y, w.z, w.n, w.numerator, w.denominator, w.is_one_exact,
                w.verdict)])

    elif args.command == "chain":
        est = _need_cbar(args, cache, manifest)
        rep = chain_compare(args.x, args.sigma, args.l, args.tau, est, config)
        rows = [(k, rep.values[k], rep.rel_errs[k]) for k in ("A", "B", "C")]
        rows.append(("PASS" if rep.passed else "FAIL", rep.implied_T, rep.x))
        _emit(manifest, args, ["kind", "value", "rel_err"], rows)

    elif args.command == "verify":
        checks = _verify_suite(args, config, cache)
        _emit(manifest, args, ["check", "status", "detail"],
              [(name, "PASS" if ok else "FAIL", detail) for name, ok, detail in checks])
        if not all(ok for _, ok, _ in checks):
            return EXIT_COMPUTE

    return EXIT_OK


def _verify_suite(args, config: PrecisionConfig, cache: ConstantsCache) -> List[verify.Check]:
    if args.suite == "asymptotics":
        return verify.asymptotics(args.heights, config)
    if args.suite == "gram":
        return verify.gram(args.nu_max, config)
    if args.suite == "branch":
        return verify.branch(args.n_heights, args.seed, config)
    if args.suite == "ladder":
        return verify.ladder(args.heights, config)
    return verify.quotients(args.heights, config, cache)


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    ap = _build_parser()
    try:
        args = ap.parse_args(raw)
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
