"""tools/dump_ops.py: the per-op dump that byte-identity checks compare."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from zetalab import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "dump_ops.py")


@pytest.fixture(scope="module")
def dump_ops():
    spec = importlib.util.spec_from_file_location("dump_ops", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_dumps_each_op(dump_ops, tmp_path, monkeypatch):
    ops = [["gram", "--from", "100", "--to", "110", "--out", "g.csv"],
           ["theta", "--t", "1"],
           ["z", "--t", "1e7"]]
    dest = tmp_path / "dump"
    dest.mkdir()
    monkeypatch.chdir(tmp_path)
    dump_ops.child(json.dumps(ops), str(dest))

    for k, (argv, code) in enumerate(zip(ops, (0, 0, 2))):
        assert (dest / f"{k}.argv").read_text() == "\n".join(argv) + "\n"
        assert (dest / f"{k}.exit").read_text() == f"{code}\n"
        assert not (dest / f"{k}.error").exists()
    gram = (dest / "0.stdout").read_text()
    assert gram.startswith("29,102.255921464083,") and len(gram.splitlines()) == 4
    assert (dest / "0.g.csv").read_text() == "nu,t,residual\n" + gram
    assert (dest / "1.stdout").read_text() == "1,-1.76754795281229,\n"
    assert (dest / "0.stderr").read_text() == (dest / "1.stderr").read_text() == ""
    assert (dest / "2.stdout").read_text() == ""
    assert (dest / "2.stderr").read_text() == "error: hardy_z requires 0 <= t <= 1e+06\n"


def test_existing_out_exits_2_before_any_workload(tmp_path):
    out = tmp_path / "dump"
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, TOOL, "--root", ROOT, "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"dump_ops.py: --out {out} already exists\n"
    assert proc.stdout == "" and list(out.iterdir()) == []


def _value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def test_cli_group_runs_every_command_and_suite(dump_ops):
    ops = dump_ops.CLI_OPS
    assert {argv[0] for argv in ops} == set(cli._COMMANDS)
    assert {_value(argv, "--suite") for argv in ops} - {None} == set(cli._SUITES)
    first_b = min(k for k, argv in enumerate(ops) if _value(argv, "--kind") == "B")
    assert any(argv[0] == "cbar" for argv in ops[:first_b])
    assert {argv[0] for argv in ops if _value(argv, "--jobs") == "2"} >= {"z", "s", "functional"}
