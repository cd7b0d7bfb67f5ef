#!/usr/bin/env python3
"""Dump what the benchmark's ops and every CLI command print and write.

    python3 tools/dump_ops.py --root DIR --seed N --out OUT

Each workload of DIR/perfbench/workloads.py runs at seed N in one fresh
interpreter that imports the package from DIR/src, as the benchmark runs
it: the ops in order, in a private working directory, so a zero scan
grows from one op to the next.  A fourth group, `cli`, runs the fixed ops
of CLI_OPS below the same way: every command and every verify suite.
For op k the dump holds

    OUT/<group>/<k>.argv     the op's arguments, one per line
    OUT/<group>/<k>.stdout   what it printed, and .stderr
    OUT/<group>/<k>.exit     its exit code (an escaped exception goes
                             to <k>.error instead)
    OUT/<group>/<k>.<name>   each file it wrote with --out

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

# Every command and every verify suite at small heights (about 1 s in all),
# kind B after the `cbar` whose key it reads, z, s and functional at --jobs 2
# (a flag every command accepts and ignores; these ops check that it still
# parses and moves no byte), and ops that exit 2, 3 and 4.  The sums include
# a window with Z below the Riemann-Siegel crossover and one overlapping a
# window summed before it.
# The S1 ops grow one zero scan through four ceilings (about 321, 1035, 1127
# and 2055), and the second c-bar fit reads tables built for a higher one.
CLI_OPS: List[List[str]] = [
    ["theta", "--t", "1,100.5"],
    ["z", "--t=-0,10,100,1000.5,5e5", "--jobs", "2"],
    ["z", "--t", "1e7"],
    ["s", "--t=-0,100.5,1000,5000", "--jobs", "2", "--out", "s.csv"],
    ["gram", "--from", "1000", "--to", "1010", "--out", "gram.csv"],
    ["moments", "--kind", "critical2", "--from", "1000", "--to", "1010"],
    ["moments", "--kind", "critical2", "--from", "1000", "--to", "1000"],
    ["moments", "--kind", "sigma2", "--sigma", "1", "--from", "1000", "--to", "1010"],
    ["moments", "--kind", "s1moment", "--l", "1", "--from", "290", "--to", "310"],
    ["moments", "--kind", "s1moment", "--l", "1", "--from", "1000", "--to", "1010"],
    ["moments", "--kind", "s1moment", "--l", "1000", "--from", "200", "--to", "240"],
    ["cbar", "--l", "1", "--T", "1000", "--H", "100"],
    ["moments", "--kind", "s1moment", "--l", "2", "--from", "1990", "--to", "2010"],
    ["cbar", "--l", "2", "--T", "1500", "--H", "300"],
    ["ladder", "--T", "1000", "--k", "3", "--out", "ladder.csv"],
    ["ladder", "--T", "50"],
    ["sum", "--kind", "pair", "--from", "10", "--to", "100"],
    ["sum", "--kind", "pair", "--from", "1000", "--to", "2000"],
    ["sum", "--kind", "fourth", "--from", "1000", "--to", "2000"],
    ["sum", "--kind", "fourth", "--from", "999.99", "--to", "1999.98"],
    ["functional", "--kind", "A", "--x", "1", "--sigma", "1", "--tau", "29.6,59.2",
     "--jobs", "2"],
    ["functional", "--kind", "B", "--x", "1", "--l", "1", "--tau", "1,2",
     "--cbar-T", "1000", "--cbar-H", "100", "--jobs", "2"],
    ["functional", "--kind", "B", "--x", "1", "--l", "1", "--tau", "1",
     "--cbar-T", "1000", "--cbar-H", "200"],
    ["functional", "--kind", "C", "--x", "1", "--sigma", "1", "--tau", "97.3",
     "--jobs", "2"],
    ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3"],
    ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3", "--kind", "C",
     "--sigma", "1", "--tau", "133.6,267.2"],
    ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3", "--kind", "B", "--l", "1",
     "--cbar-T", "1000", "--cbar-H", "100", "--tau", "1"],
    ["chain", "--x", "1", "--sigma", "1", "--l", "1", "--tau", "29.6",
     "--cbar-T", "1000", "--cbar-H", "100", "--out", "chain.csv"],
    ["verify", "--suite", "asymptotics", "--heights", "1000,2000,4000"],
    ["verify", "--suite", "gram", "--nu-max", "200"],
    ["verify", "--suite", "branch", "--n-heights", "3", "--seed", "1"],
    ["verify", "--suite", "ladder", "--heights", "1000,5000", "--out", "verify.csv"],
    ["verify", "--suite", "quotients", "--heights", "1000"],
]

# the group's interpreter: argv is this directory, the ops as JSON, the dump directory
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

    try:
        os.makedirs(args.out)
    except FileExistsError:
        print(f"dump_ops.py: --out {args.out} already exists", file=sys.stderr)
        return 2
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    groups = {name: workloads.ops(name, args.seed) for name in workloads.WORKLOADS}
    groups["cli"] = CLI_OPS
    status = 0
    for name, ops in groups.items():
        dest = os.path.abspath(os.path.join(args.out, name))
        os.makedirs(dest)
        with tempfile.TemporaryDirectory(prefix=f"dump-{name}-") as workdir:
            proc = subprocess.run([sys.executable, "-c", CHILD, HERE, json.dumps(ops), dest],
                                  cwd=workdir, env=env)
        if proc.returncode != 0:
            print(f"{name}: the group's interpreter exited {proc.returncode}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
