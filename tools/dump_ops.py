#!/usr/bin/env python3
"""Dump what every op of the benchmark's workloads prints and writes.

    python3 tools/dump_ops.py --root DIR --seed N --out OUT

Each workload of DIR/perfbench/workloads.py runs at seed N in one fresh
interpreter that imports the package from DIR/src, as the benchmark runs
it: the ops in order, in a private working directory, so a zero scan
grows from one op to the next.  For op k the dump holds

    OUT/<workload>/<k>.argv     the op's arguments, one per line
    OUT/<workload>/<k>.stdout   what it printed, and .stderr
    OUT/<workload>/<k>.exit     its exit code (an escaped exception goes
                                to <k>.error instead)
    OUT/<workload>/<k>.<name>   each file it wrote with --out

and, after the last op, cbar.json: the constants cache without its
timestamps.  Timings and the run manifest are left out, since they change
from run to run.  Two checkouts produce the same bytes when

    diff -r OUT_A OUT_B

prints nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))

# the workload's interpreter: argv is this directory, the ops as JSON, the dump directory
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import dump_ops; "
         "dump_ops.child(*sys.argv[2:])")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def child(ops_json: str, dest: str) -> None:
    """Run the ops in the working directory and dump them into dest."""
    import zetalab.cli

    ops: List[List[str]] = json.loads(ops_json)
    for k, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = zetalab.cli.main(argv + ["--manifest", "manifest.jsonl",
                                                "--cache-dir", "cache"])
        except Exception:
            error = traceback.format_exc()
        base = os.path.join(dest, str(k))
        _write(base + ".argv", "\n".join(argv) + "\n")
        _write(base + ".stdout", out.getvalue())
        _write(base + ".stderr", err.getvalue())
        if error is None:
            _write(base + ".exit", f"{code}\n")
        else:
            _write(base + ".error", error)
        if "--out" in argv:
            name = argv[argv.index("--out") + 1]
            if os.path.exists(name):
                shutil.copyfile(name, f"{base}.{os.path.basename(name)}")
    cache = os.path.join("cache", "constants.json")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as f:
            records = json.load(f)
        for rec in records.values():
            rec.pop("timestamp", None)
        _write(os.path.join(dest, "cbar.json"), json.dumps(records, indent=2, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="source checkout whose src/ is run")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="dump directory (must not exist)")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    os.makedirs(args.out)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("ZLAB_CACHE_DIR", None)
    status = 0
    for name in workloads.WORKLOADS:
        dest = os.path.abspath(os.path.join(args.out, name))
        os.makedirs(dest)
        ops = json.dumps(workloads.ops(name, args.seed))
        with tempfile.TemporaryDirectory(prefix=f"dump-{name}-") as workdir:
            proc = subprocess.run([sys.executable, "-c", CHILD, HERE, ops, dest],
                                  cwd=workdir, env=env)
        if proc.returncode != 0:
            print(f"{name}: the workload's interpreter exited {proc.returncode}",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
