"""One workload pass in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds {"src": <dir holding the zetalab package>, "ops": [argv, ...],
"trace": bool}.  The pass imports the package (timed as set-up), then
runs each op in order through `zetalab.cli.main(argv)` with its stdout and
stderr captured, and writes timings, outputs and, when traced, the layer
report to RESULT.  The working directory is the run's private directory.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)

    t0 = time.perf_counter()
    import zetalab
    import zetalab.cli
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(zetalab.__file__).startswith(src + os.sep):
        print(f"zetalab imported from {zetalab.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.install()

    ops = []
    wall_s = 0.0
    for argv in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = zetalab.cli.main(argv)
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        wall_s += elapsed
        ops.append({"argv": argv, "exit": rc, "stdout": out.getvalue(),
                    "stderr": err.getvalue(), "error": error, "wall_s": elapsed})

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
