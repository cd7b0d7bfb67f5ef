#!/usr/bin/env python3
"""zetalab benchmark: drive the `zetalab` CLI as a user would.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Each workload pass is one fresh child interpreter that imports
the package and runs the workload's ops in order through
`zetalab.cli.main(argv)` (see workloads.py).  A run repeats passes for
about S seconds and checks every pass against the stored seed outputs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: `wall_s`
(median wall time of a pass's ops), `setup_s` (median import time, with
warm bytecode, over the passes and a few import-only children) and
`peak_rss_mb` (the largest peak resident memory of any pass: with
`--jobs 2` it depends on how the workers' kernel arrays happen to overlap,
and a user meets the worst case).  Failed ops are counted in `failed` out
of `attempted`.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of BENCHMARK.json from the traced ones (tracer.py), with the
tracing overhead as traced minus untraced `wall_s`; traced outputs must
equal untraced ones.

The last stdout line is the JSON result; the line before it, starting with
"record ", holds the spreads, sample counts and the machine record.
`--write-expected` stores the current outputs at the reference seed as the
expected ones.  Every pass works in its own directory under
.perfbench_tmp/, and the run fails if it leaves the rest of the checkout
changed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from typing import Dict, List, Optional

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")

SETUP_PROBES = 2  # import-only children per untraced run, for setup_s
MIN_PASSES = 3  # untraced passes per run, even past --seconds
HARD_LIMIT_S = 165.0  # a run never starts work past this


def _median_q(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    q1 = q3 = med
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Child passes of one run, each in its own directory under the run's."""

    def __init__(self, workload: str, seed: int, expected: Optional[Dict] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.ops = workloads.ops(workload, seed)
        self.expected = expected
        self.tolerances = check.load_tolerances() if expected is not None else None
        self.t0 = time.perf_counter()
        self.rundir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=TMP)
        self.pycache = os.path.join(self.rundir, "pycache")
        self.n_children = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def child(self, ops: List[List[str]], trace: bool) -> Optional[Dict]:
        """One fresh interpreter; None when it crashed or timed out.

        When the runner has expected outputs, res["problems"] lists each
        op's correctness problems.
        """
        self.n_children += 1
        workdir = os.path.join(self.rundir, f"pass{self.n_children}")
        os.makedirs(workdir)
        spec_path = os.path.join(workdir, "spec.json")
        result_path = os.path.join(workdir, "result.json")
        full_ops = [argv + ["--manifest", "manifest.jsonl", "--cache-dir", "cache"] for argv in ops]
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump({"src": SRC, "ops": full_ops, "trace": trace}, f)
        # Bytecode is read and written only under the run's own prefix, so
        # no __pycache__ of the checkout or of site-packages is used and the
        # sources stay untouched.  The run's first child compiles everything
        # (see _run); every later set-up loads the same warm bytecode.
        # One BLAS thread, as every op gets `--jobs`: the BLAS pool would
        # otherwise size itself from the machine's CPU count, and its
        # spinning threads compete with the op's own ones.
        env = dict(os.environ, PYTHONPATH=SRC, ZLAB_CACHE_DIR=os.path.join(workdir, "cache"),
                   PYTHONPYCACHEPREFIX=self.pycache, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        timeout = max(5.0, HARD_LIMIT_S + 10.0 - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                cwd=workdir, env=env, timeout=timeout, capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"pass exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return None
        with open(result_path, encoding="utf-8") as f:
            res = json.load(f)
        if self.expected is not None and ops:
            res["problems"] = check.check_pass(self.workload, self.seed, ops, res["ops"],
                                               self.expected, self.tolerances)
            # problems with the files a pass wrote count against its last op
            res["problems"][-1] += check.check_files(workdir, ops, res["ops"])
        shutil.rmtree(workdir)
        return res

    def cleanup(self) -> None:
        shutil.rmtree(self.rundir, ignore_errors=True)


def _tree_snapshot() -> Dict[str, tuple]:
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        if dirpath == ROOT and ".perfbench_tmp" in dirnames:
            dirnames.remove(".perfbench_tmp")
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            snap[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return snap


def _machine() -> Dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as f:
            commit = f.read().strip()
        ref = os.path.join(ROOT, ".git", commit[5:]) if commit.startswith("ref: ") else None
        if ref and os.path.exists(ref):
            with open(ref, encoding="utf-8") as f:
                commit = f.read().strip()
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "zetalab", "*.py"))):
        with open(path, "rb") as f:
            digest.update(f.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()}


def _layer_values(res: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, derived ratios included.

    A function the pass never called has no entry and reads 0.
    """
    vals = dict(res["trace"])

    def ratio(num: str, den: str) -> float:
        return vals.get(num, 0.0) / vals[den] if vals.get(den, 0.0) > 0 else 0.0

    for name, num, den in (
        ("zeta.zeta_abs2_line.terms_per_s", "zeta.zeta_abs2_line.em_terms",
         "zeta.zeta_abs2_line.self_s"),
        ("zeta.hardy_z_many.terms_per_s", "zeta.hardy_z_many.rs_terms",
         "zeta.hardy_z_many.self_s"),
        ("argz.ZeroCache.ensure.useful_ratio", "argz.ZeroCache.ensure.new_t",
         "argz.ZeroCache.ensure.scanned_t"),
        ("moments.second_moment_critical.repeat_ratio", "moments.second_moment_critical.repeats",
         "moments.second_moment_critical.calls"),
        ("ladders.reverse_iterate.repeat_ratio", "ladders.reverse_iterate.repeats",
         "ladders.reverse_iterate.calls"),
        ("cli.parallel_ratio", "cli.cpu_s", "cli.main.incl_s"),
    ):
        vals[name] = ratio(num, den)
    vals["trace.layer_coverage"] = vals["trace.layer_union_s"] / res["wall_s"]
    vals["trace.wall_s"] = res["wall_s"]
    return vals


def _run(args, bench: Dict, expected: Dict) -> int:
    before = _tree_snapshot()
    runner = Runner(args.workload, args.seed, expected)
    deadline = float(args.seconds)
    setups: List[float] = []
    untraced: List[Dict] = []
    traced: List[Dict] = []
    durations: List[float] = []
    attempted = failed = 0
    crashed = False

    def account(res: Optional[Dict]) -> None:
        nonlocal attempted, failed, crashed
        attempted += len(runner.ops)
        if res is None:
            failed += len(runner.ops)
            crashed = True
            return
        setups.append(res["setup_s"])
        failed += sum(1 for p in res["problems"] if p)
        for problems in res["problems"]:
            for p in problems:
                print(p, file=sys.stderr)

    try:
        if runner.child([], trace=False) is None:  # compiles the run's bytecode
            crashed = True
        if not args.trace:
            for _ in range(SETUP_PROBES):
                res = runner.child([], trace=False)
                if res is not None:
                    setups.append(res["setup_s"])
        while not crashed and runner.elapsed() < HARD_LIMIT_S:
            t = time.perf_counter()
            if not args.trace:
                res = runner.child(runner.ops, trace=False)
                account(res)
                if res is not None:
                    untraced.append(res)
            else:
                plain, traced_res = (runner.child(runner.ops, trace=False),
                                     runner.child(runner.ops, trace=True))
                account(plain)
                account(traced_res)
                if crashed:
                    break
                untraced.append(plain)
                traced.append(traced_res)
                for i, (a, b) in enumerate(zip(plain["ops"], traced_res["ops"])):
                    if a["stdout"] != b["stdout"] or a["exit"] != b["exit"]:
                        failed += 1
                        print(f"traced output of op {i} differs from the untraced one",
                              file=sys.stderr)
            durations.append(time.perf_counter() - t)
            enough = args.trace or len(durations) >= MIN_PASSES
            if enough and runner.elapsed() + statistics.median(durations) > deadline:
                break
    finally:
        runner.cleanup()

    if not untraced or (args.trace and not traced):
        print("no pass completed", file=sys.stderr)
        crashed = True

    samples: Dict[str, List[float]] = {}
    top: List[tuple] = []
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if not crashed and not args.trace:
        samples["wall_s"] = [r["wall_s"] for r in untraced]
        samples["setup_s"] = setups
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
    elif not crashed:
        layer = [_layer_values(r) for r in traced]
        for m in wanted:
            samples[m["name"]] = [v.get(m["name"], 0.0) for v in layer]
        plain_wall = statistics.median(r["wall_s"] for r in untraced)
        samples["trace.overhead_s"] = [v["trace.wall_s"] - plain_wall for v in layer]
        top = sorted(((statistics.median(v.get(k, 0.0) for v in layer), k)
                      for k in layer[0] if k.endswith(".self_s")), reverse=True)[:12]

    metrics = {}
    if not crashed:
        for m in wanted:
            pick = max if m["name"] == "peak_rss_mb" else statistics.median
            metrics[m["name"]] = {"value": pick(samples[m["name"]]), "unit": m["unit"]}

    after = _tree_snapshot()
    changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
    if changed:
        print(f"the run changed the checkout: {changed[:10]}", file=sys.stderr)

    stats = {k: _median_q(v) for k, v in samples.items() if v}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced) + len(traced)} attempted={attempted} failed={failed}")
    for name, st in stats.items():
        print(f"  {name:<48} median {st['median']:.6g}  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  "
              f"n {st['n']}")
    if top:
        print("largest self times (traced):")
        print("\n".join(f"  {k:<48} {s:9.4f} s" for s, k in top))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stats": stats, "machine": _machine(),
              "fail_ratio": failed / max(attempted, 1)}
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": not crashed and failed == 0 and not changed,
              "attempted": max(attempted, 1), "failed": failed if attempted else 1,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def _write_expected(workload: str) -> int:
    seed = workloads.REFERENCE_SEED
    runner = Runner(workload, seed)
    try:
        res = runner.child(runner.ops, trace=False)
    finally:
        runner.cleanup()
    if res is None or any(op["error"] for op in res["ops"]):
        print("the reference pass failed", file=sys.stderr)
        return 1
    expected = {"seed": seed, "ops": [
        {"argv": argv, "exit": op["exit"], "stdout": op["stdout"]}
        for argv, op in zip(runner.ops, res["ops"])]}
    with open(check.expected_path(workload), "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1)
        f.write("\n")
    print(f"wrote {check.expected_path(workload)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="store this code's outputs at the reference seed as expected")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "zetalab", "__init__.py")):
        print(f"no zetalab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(TMP, exist_ok=True)
    if args.write_expected:
        return _write_expected(args.workload)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return _run(args, bench, check.load_expected(args.workload))


if __name__ == "__main__":
    sys.exit(main())
