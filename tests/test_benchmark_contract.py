"""The benchmark's outside-in tracer still fits the package.

perfbench/tracer.py wraps every public function of the package and reads
the call arguments of the ones it hooks (tracer.HOOKS), by name and by
signature.  It refuses to install when a hooked name is no longer a plain
function, which is what a memo decorator such as functools.lru_cache
leaves behind.  Installing it patches the package in place, so it runs in
a fresh interpreter here, with three small traced ops.  The verify op
fails its bands by design (exit 3); it shows that zetalab.verify, which
the tracer does not wrap, still reaches the package through the module
attributes that the tracer patches.  No op reaches zeta_abs2_line, whose
hook reads the Euler-Maclaurin margins from DEFAULT_CONFIG, so the child
calls it directly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OPS = [
    ["ladder", "--T", "200", "--k", "1"],
    ["moments", "--kind", "critical2", "--from", "100", "--to", "110", "--out", "m.csv"],
    ["verify", "--suite", "asymptotics", "--heights", "1e3,2e3,4e3"],
]

CHILD = r"""
import importlib, inspect, json, sys
import tracer

def resolve(name):
    head, *rest = name.split(".")
    obj = importlib.import_module("zetalab." + head)
    for part in rest:
        obj = getattr(obj, part)
    return obj

not_plain = [n for n in tracer.HOOKS if not inspect.isfunction(resolve(n))]
tr = tracer.install()
import zetalab.cli
codes = [zetalab.cli.main(argv + ["--manifest", "m.jsonl", "--cache-dir", "cache"])
         for argv in json.loads(sys.argv[1])]
# no op reaches the sigma-line kernel's hook, which reads the EM margins
importlib.import_module("zetalab.zeta").zeta_abs2_line(1.0, [100.0, 200.0])
print(json.dumps({"not_plain": not_plain, "codes": codes, "report": tr.report()}))
"""


def test_tracer_installs_and_its_hooks_see_live_calls(tmp_path):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(OPS)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["not_plain"] == []
    assert out["codes"] == [0, 0, 3]
    report = out["report"]
    for name in ("cli.main", "ladders.reverse_iterate", "quad.gauss_panels",
                 "zeta.hardy_z_many", "moments.second_moment_critical",
                 "quad.integrate_panels", "manifest.write_csv"):
        assert report.get(name + ".calls", 0) >= 1, name
    assert report["moments.second_moment_critical.calls"] == 2
    assert report.get("sums.verify_asymptotic_trend.calls", 0) == 2
    for count in ("ladders.reverse_iterate.bracket_tries", "zeta.hardy_z_many.points",
                  "quad.integrate_panels.panels", "manifest.write_csv.bytes", "cli.cpu_s",
                  "zeta.zeta_abs2_line.em_terms"):
        assert report.get(count, 0) > 0, count
