"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 3, 4 and 8 encode band/trend expectations that the
desk-scale behaviour of the underlying asymptotics does not meet (the
computations themselves are oracle-verified); they fail honestly and the
measured values are printed.  See README.md for the analysis.
"""

import math
import time

import numpy as np
import pytest

import zetalab as zl
from zetalab import verify
from zetalab.cli import main as cli_main


def report(num: int, name: str, ok: bool, detail: str, t0: float, budget_s: float):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail}; {elapsed:.1f}s/{budget_s:.0f}s)")
    assert elapsed <= budget_s, f"runtime budget exceeded: {elapsed:.1f}s"
    assert ok, f"criterion {num} {name}: {detail}"


def checked(checks):
    """(all passed, one detail line) for zetalab.verify checks."""
    return (all(ok for _, ok, _ in checks),
            "; ".join(f"{name} {'PASS' if ok else 'FAIL'} {detail}"
                      for name, ok, detail in checks))


@pytest.fixture(scope="module")
def functional_runs():
    """Kind A and C values at implied T = 1e4 and 5e4 (x = 1, sigma = 1)."""
    out = {}
    for kind in ("A", "C"):
        K = zl.substitution_constant(kind, sigma=1.0)
        taus = {}
        for T in (1e4, 5e4):
            tau = T / K
            taus[T] = tau
            out[(kind, T)] = zl.functional_approximant(kind, 1.0, tau, sigma=1.0)
        out[(kind, "taus")] = taus
    return out


def test_criterion_01_gram_fidelity():
    t0 = time.monotonic()
    ok, detail = checked(verify.gram(100000))
    count = len(zl.gram_range(1e4, 2e4))
    expected = (zl.theta(2e4) - zl.theta(1e4)) / math.pi
    count_ok = abs(count / expected - 1.0) <= 0.005
    report(1, "gram-fidelity", ok and count_ok,
           f"{detail}; count {count} vs {expected:.1f}", t0, 120.0)


def test_criterion_02_branch_integrity():
    t0 = time.monotonic()
    ok, detail = checked(verify.branch(100, 20260809))
    report(2, "branch-integrity", ok, detail, t0, 300.0)


def test_criterion_03_titchmarsh_asymptotic():
    t0 = time.monotonic()
    checks = verify.asymptotics([1e3, 5e3, 2e4])
    ok, detail = checked([c for c in checks if c[0].startswith("pair-")])
    report(3, "titchmarsh-asymptotic", ok, detail, t0, 600.0)


def test_criterion_04_fourth_power_asymptotic():
    t0 = time.monotonic()
    checks = verify.asymptotics([1e3, 5e3, 2e4])
    ok, detail = checked([c for c in checks if c[0].startswith("fourth-")])
    report(4, "fourth-power-asymptotic", ok, detail, t0, 600.0)


def test_criterion_05_ladder_defining_equation():
    t0 = time.monotonic()
    ok, detail = checked(verify.ladder([1e3, 1e4]))
    T = 1e4
    hs = [T] + zl.ladder_chain(T, 4).iterates
    gaps = [b - a for a, b in zip(hs, hs[1:])]
    telescope_ok = math.fsum(gaps) == pytest.approx(hs[-1] - hs[0], abs=1e-9 * hs[-1])
    whole = zl.second_moment_critical(hs[0], hs[-1]).value
    parts = math.fsum(zl.second_moment_critical(a, b).value for a, b in zip(hs, hs[1:]))
    partition_ok = abs(parts - whole) <= 1e-9 * abs(whole)
    gap_ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    ratios_ok = all(0.9 <= g <= 1.1 for g in gap_ratios)
    ok = ok and telescope_ok and partition_ok and ratios_ok
    detail += (f"; telescope {telescope_ok}, partition {partition_ok}, gap_ratios "
               + ",".join(f"{g:.3f}" for g in gap_ratios))
    report(5, "ladder-defining-equation", ok, detail, t0, 300.0)


def test_criterion_06_quotient_formulas():
    t0 = time.monotonic()
    ok, detail = checked(verify.quotients([1e4]))
    report(6, "quotient-formulas", ok, detail, t0, 1200.0)


def test_criterion_07_scaling_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for kind in ("A", "C"):
        K = zl.substitution_constant(kind, sigma=1.0)
        for _ in range(5):
            x = 0.5 + 2.0 * float(rng.random())
            T_target = 150.0 + 500.0 * float(rng.random())
            tau = T_target / (K * x)
            v_xy = zl.functional_approximant(kind, x, tau, sigma=1.0)
            v_1 = zl.functional_approximant(kind, 1.0, x * tau, sigma=1.0)
            worst = max(worst, abs(v_xy.value - x * v_1.value))
    ok = worst <= 1e-12
    report(7, "functional-scaling-identity", ok,
           f"worst |value(x,tau) - x*value(1,x*tau)| = {worst:.2e} over 10 draws",
           t0, 600.0)


def test_criterion_08_functional_convergence(functional_runs):
    t0 = time.monotonic()
    details = []
    ok = True
    for kind in ("A", "C"):
        v1 = functional_runs[(kind, 1e4)].value
        v5 = functional_runs[(kind, 5e4)].value
        band_ok = 0.5 <= v1 <= 1.5
        decrease_ok = abs(v5 - 1.0) < abs(v1 - 1.0)
        ok = ok and band_ok and decrease_ok
        details.append(
            f"{kind}: value(T=1e4)={v1:.4f} (band {band_ok}), "
            f"value(T=5e4)={v5:.4f}, |v-1| decrease {decrease_ok}"
        )
    report(8, "functional-convergence", ok, "; ".join(details), t0, 900.0)


def test_criterion_09_fermat_ground_truth(functional_runs):
    t0 = time.monotonic()
    hits = zl.fermat_search(50, 3, 12)
    search_ok = hits == []
    # functional trace reuses the criterion-8 windows: halving tau keeps
    # the implied height bitwise identical for x = 2
    taus8 = functional_runs[("C", "taus")]
    schedule = [taus8[1e4] / 2.0, taus8[5e4] / 2.0]
    w = zl.fermat_equivalence_check(1, 1, 1, 3, kind="C", sigma=1.0,
                                    tau_schedule=schedule)
    dist = [abs(a.value - 2.0) for a in w.approximants]
    witness_ok = (not w.is_one_exact) and dist[1] <= dist[0]
    extra = [zl.fermat_equivalence_check(3, 4, 5, 3),
             zl.fermat_equivalence_check(2, 3, 4, 7)]
    extra_ok = all(not e.is_one_exact for e in extra)
    ok = search_ok and witness_ok and extra_ok
    report(9, "fermat-ground-truth", ok,
           f"exhaustive x,y,z<=50, 3<=n<=12: {len(hits)} hits; "
           f"witness trace dist-to-2: {dist[0]:.3f}->{dist[1]:.3f}; verdict: {w.verdict}",
           t0, 120.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    cmds = [
        ["gram", "--from", "1000", "--to", "1200"],
        ["sum", "--kind", "pair", "--from", "1000", "--to", "2000"],
        ["z", "--t", "100.5,250.25,777.125"],
        ["ladder", "--T", "1000", "--k", "2"],
    ]
    ok = True
    for i, cmd in enumerate(cmds):
        outs = []
        for run, jobs in enumerate(("1", "4", "1")):
            out = tmp_path / f"c{i}_{run}.csv"
            code = cli_main(cmd + ["--jobs", jobs, "--out", str(out),
                                   "--manifest", str(tmp_path / "m.jsonl")])
            assert code == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1] == outs[2]
    report(10, "determinism", ok,
           f"{len(cmds)} commands, reruns at jobs=1/4 byte-identical", t0, 300.0)
