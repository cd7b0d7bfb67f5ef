"""Correctness checks of one workload pass against the stored seed outputs.

Strings, integers and the PASS/FAIL column must match exactly.  Floats
must agree within the per-column tolerance of `tolerances.json`; where a
column names a `cap`, the tolerance is never looser than that row's own
reported error.  Rows of the seeded `s` op are compared verbatim only at
the reference seed; at every seed they must satisfy the branch identity
theta(t)/pi + 1 + S(t) = N(t), with theta recomputed here from log-Gamma.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from typing import Dict, List

import numpy as np
from scipy.special import loggamma

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")

# Branch-integrality acceptance used by the `verify --suite branch` suite.
BRANCH_RESIDUAL_MAX = 1e-8
# |S(t)| stays below 2 far beyond the heights drawn here; a tracking error
# of one full turn moves S by 2.
S_ABS_MAX = 2.0


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, workload + ".json")


def load_expected(workload: str) -> Dict:
    with open(expected_path(workload), encoding="utf-8") as f:
        return json.load(f)


def load_tolerances() -> Dict:
    with open(os.path.join(HERE, "tolerances.json"), encoding="utf-8") as f:
        return json.load(f)


def _float_ok(got: str, exp: str, tol: float) -> bool:
    try:
        g, e = float(got), float(exp)
    except ValueError:
        return False
    return math.isfinite(g) and abs(g - e) <= tol


def _text_numbers_ok(got: str, exp: str, tol: float) -> bool:
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", exp):
        return False
    return all(_float_ok(g, e, tol) for g, e in
               zip(_NUMBER.findall(got), _NUMBER.findall(exp)))


def compare_rows(command: str, got: str, exp: str, tolerances: Dict) -> List[str]:
    spec = tolerances[command]
    columns, tol = spec["columns"], spec.get("tolerance", {})
    g_rows = [r.split(",", len(columns) - 1) for r in got.splitlines()]
    e_rows = [r.split(",", len(columns) - 1) for r in exp.splitlines()]
    if len(g_rows) != len(e_rows):
        return [f"{command}: {len(g_rows)} rows, expected {len(e_rows)}"]
    problems = []
    for i, (g, e) in enumerate(zip(g_rows, e_rows)):
        if len(g) != len(e):
            problems.append(f"{command} row {i}: {len(g)} columns, expected {len(e)}")
            continue
        for col, gv, ev in zip(columns, g, e):
            t = tol.get(col)
            if t is None:
                ok = gv == ev
            elif t.get("text"):
                ok = _text_numbers_ok(gv, ev, t["abs"])
            else:
                limit = t.get("abs", 0.0) + t.get("rel", 0.0) * abs(float(ev))
                if "cap" in t:
                    limit = min(limit, abs(float(e[columns.index(t["cap"])])))
                ok = _float_ok(gv, ev, limit)
            if not ok:
                problems.append(f"{command} row {i} column {col}: got {gv!r}, expected {ev!r}")
                if len(problems) > 10:
                    return problems
    return problems


def _theta(t: np.ndarray) -> np.ndarray:
    return np.imag(loggamma(0.25 + 0.5j * t)) - 0.5 * t * math.log(math.pi)


def check_s_rows(stdout: str, heights: List[str]) -> List[str]:
    """Branch identity of `s` rows at any seed."""
    rows = [r.split(",") for r in stdout.splitlines()]
    if len(rows) != len(heights):
        return [f"s: {len(rows)} rows for {len(heights)} heights"]
    problems = []
    try:
        t = np.array([float(r[0]) for r in rows])
        s = np.array([float(r[1]) for r in rows])
        n = np.array([int(r[2]) for r in rows])
        resid = np.array([float(r[3]) for r in rows])
    except (ValueError, IndexError) as e:
        return [f"s: malformed row ({e})"]
    if [r[0] for r in rows] != [f"{float(h):.15g}" for h in heights]:
        problems.append("s: heights differ from the requested ones")
    x = _theta(t) / math.pi + 1.0 + s
    bad = (np.abs(x - n) > resid + 1e-9) | (resid > BRANCH_RESIDUAL_MAX) | (np.abs(s) >= S_ABS_MAX)
    order = np.argsort(t)
    if np.any(np.diff(n[order]) < 0):
        problems.append("s: zero counts decrease with height")
    for i in np.nonzero(bad)[0]:
        problems.append(f"s: branch identity fails at t={rows[i][0]} (N={n[i]}, S={s[i]}, "
                        f"residual={resid[i]}, theta/pi+1+S={x[i]:.12f})")
    return problems


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def check_files(workdir: str, ops: List[List[str]], results: List[Dict]) -> List[str]:
    """CSV files, manifest records and the constants cache a pass wrote.

    A missing or unreadable file, or a malformed record, is a problem too.
    """
    problems = []
    for argv, res in zip(ops, results):
        if "--out" in argv:
            path = os.path.join(workdir, argv[argv.index("--out") + 1])
            try:
                data = _read(path)
            except OSError as e:
                problems.append(f"{argv[0]}: cannot read {path}: {e}")
                continue
            header = data.split(b"\n", 1)[0] + b"\n"
            if data != header + res["stdout"].encode("utf-8"):
                problems.append(f"{argv[0]}: {path} differs from the rows printed")
    try:
        with open(os.path.join(workdir, "manifest.jsonl"), encoding="utf-8") as f:
            records = [json.loads(line) for line in f]
        if [r["argv"] for r in records] != [r["argv"] for r in results]:
            problems.append("manifest records do not match the ops run")
        for rec in records:
            for path, digest in rec.get("outputs", {}).items():
                if hashlib.sha256(_read(os.path.join(workdir, path))).hexdigest() != digest:
                    problems.append(f"manifest digest of {path} does not match the file")
        cbar_keys = [k for r in records if r["argv"][0] == "cbar" for k in r["cbar_keys"]]
        if cbar_keys:
            with open(os.path.join(workdir, "cache", "constants.json"), encoding="utf-8") as f:
                cached = json.load(f)
            if sorted(cached) != sorted(cbar_keys):
                problems.append("constants cache keys differ from the cbar runs")
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems.append(f"manifest or constants cache unusable: {type(e).__name__}: {e}")
    return problems


def check_pass(workload: str, seed: int, ops: List[List[str]], results: List[Dict],
               expected: Dict, tolerances: Dict) -> List[List[str]]:
    """Problems per op (an empty list means the op passed)."""
    seeded = workloads.SEEDED_OPS.get(workload)
    per_op = []
    for i, (argv, res) in enumerate(zip(ops, results)):
        exp = expected["ops"][i]
        problems = []
        if res["error"]:
            problems.append(f"{argv[0]} raised:\n{res['error']}")
        elif res["exit"] != exp["exit"]:
            problems.append(f"{argv[0]}: exit code {res['exit']}, expected {exp['exit']}; "
                            f"stderr: {res['stderr'].strip()}")
        else:
            if i == seeded:
                problems += check_s_rows(res["stdout"], workloads.s_heights(seed))
            if i != seeded or seed == expected["seed"]:
                if argv != exp["argv"]:
                    problems.append(f"op {i} argv differs from the stored one; "
                                    "regenerate the expected outputs")
                problems += compare_rows(argv[0], res["stdout"], exp["stdout"], tolerances)
        per_op.append(problems)
    return per_op
