"""CLI behavior: CSV outputs, exit codes, manifests, determinism."""

import ast
import hashlib
import inspect
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import zetalab
from zetalab import cli, config, verify
from zetalab.cli import main
from zetalab.manifest import csv_cells

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    manifest = tmp_path / "manifest.jsonl"
    code = main(args + ["--out", str(out), "--manifest", str(manifest)])
    return code, out, manifest


class TestGramCommand:
    def test_contiguous_and_formatted(self, tmp_path):
        code, out, manifest = run_cli(
            ["gram", "--from", "1000", "--to", "1100"], tmp_path
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "nu,t,residual"
        nus = [int(line.split(",")[0]) for line in lines[1:]]
        assert nus == list(range(nus[0], nus[0] + len(nus)))
        ts = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(1000.0 <= t < 1100.0 for t in ts)

    def test_row_count_matches_terms(self, tmp_path):
        from zetalab import gram_range

        code, out, _ = run_cli(["gram", "--from", "500", "--to", "600"], tmp_path)
        assert code == 0
        assert len(out.read_text().splitlines()) - 1 == len(gram_range(500.0, 600.0))


class TestDeterminism:
    def test_rerun_bit_identical(self, tmp_path):
        _, out1, _ = run_cli(["sum", "--kind", "pair", "--from", "500", "--to", "1000"],
                             tmp_path, "a.csv")
        _, out2, _ = run_cli(["sum", "--kind", "pair", "--from", "500", "--to", "1000"],
                             tmp_path, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("setup, base", [
        ([], ["functional", "--kind", "A", "--x", "1", "--sigma", "1",
              "--tau", "29.6,59.2,118.4"]),
        ([["cbar", "--l", "1", "--T", "10000", "--H", "1000"]],
         ["functional", "--kind", "B", "--x", "1", "--l", "1", "--tau", "5.7,5.72,5.69",
          "--cbar-T", "10000", "--cbar-H", "1000"]),
    ], ids=["A", "B"])
    def test_jobs_invariance(self, tmp_path, clear_memos, setup, base):
        # --jobs is accepted and ignored, so it moves no byte; each run starts
        # from empty memos, and kind B reads S1 from the tables its fit left
        cache = ["--cache-dir", str(tmp_path / "cache")]
        for argv in setup:
            assert run_cli(argv + cache, tmp_path, "setup.csv")[0] == 0
        outs = []
        for jobs in ("1", "2"):
            clear_memos()
            code, out, _ = run_cli(base + cache + ["--jobs", jobs], tmp_path, f"j{jobs}.csv")
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_functional_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise RuntimeError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, _, _ = run_cli(["functional", "--kind", "A", "--x", "1", "--sigma", "1",
                              "--tau", "29.6,59.2,118.4", "--jobs", "2"], tmp_path)
        assert code == 0

    def test_ladder_rerun_identical(self, tmp_path):
        _, out1, _ = run_cli(["ladder", "--T", "1000", "--k", "2"], tmp_path, "l1.csv")
        _, out2, _ = run_cli(["ladder", "--T", "1000", "--k", "2"], tmp_path, "l2.csv")
        assert out1.read_bytes() == out2.read_bytes()


class TestExitCodes:
    def test_flag_error_is_2(self, tmp_path):
        assert main(["gram", "--from", "1000"]) == 2  # missing --to

    def test_domain_error_is_2(self, tmp_path):
        code, _, _ = run_cli(["gram", "--from", "3", "--to", "10"], tmp_path)
        assert code == 2

    def test_missing_cbar_is_2(self, tmp_path):
        code, _, _ = run_cli(
            ["functional", "--kind", "B", "--x", "1", "--tau", "1.0", "--l", "1"],
            tmp_path,
        )
        assert code == 2

    def test_precision_error_is_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(config, "EVAL_TOL", 1e-18)
        code, _, _ = run_cli(
            ["moments", "--kind", "sigma2", "--sigma", "1.0", "--from", "52000", "--to", "52010"],
            tmp_path,
        )
        assert code == 4

    def test_quadrature_gate_is_4(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["moments", "--kind", "s1moment", "--l", "1000", "--from", "200", "--to", "240"],
            tmp_path,
        )
        assert code == 4 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("precision error: s1moment: quadrature error ")
        assert "exceeds 1% of value" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_moment_is_4(self, tmp_path, capsys):
        # |S1|^2400 overflows: the moment is inf and its estimate NaN, and
        # no numpy warning comes before the typed error
        code, out, _ = run_cli(
            ["moments", "--kind", "s1moment", "--l", "1200", "--from", "200", "--to", "240"],
            tmp_path,
        )
        assert code == 4 and not out.exists()
        assert capsys.readouterr().err == (
            "precision error: s1moment: value inf or its error estimate nan is not finite\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, message", [
        (["cbar", "--l", "100000", "--T", "1000", "--H", "100"],
         "s1moment: value inf or its error estimate nan is not finite"),
        (["moments", "--kind", "sigma2", "--sigma", "1", "--from", "1e-300", "--to", "1"],
         "sigma2: value inf or its error estimate nan is not finite"),
        (["functional", "--kind", "C", "--x", "1", "--tau", "1", "--sigma", "1e308"],
         "sigma2: value nan or its error estimate nan is not finite"),
    ], ids=["cbar", "sigma2-at-the-pole", "C-huge-sigma"])
    def test_overflow_prints_only_the_typed_error(self, tmp_path, capsys, argv, message):
        code, out, _ = run_cli(argv + ["--cache-dir", str(tmp_path / "cache")], tmp_path)
        assert code == 4 and not out.exists()
        assert capsys.readouterr().err == f"precision error: {message}\n"


class TestBadInputsExit2:
    @pytest.mark.parametrize("field", ["abs_tol", "quad_step_cap", "em_margin_base",
                                       "em_margin_scale", "eval_tol"])
    def test_fixed_constants_are_not_config_fields(self, tmp_path, capsys, field):
        flag = "--" + field.replace("_", "-")
        code, out, _ = run_cli(["z", "--t", "100", flag, "1"], tmp_path)
        assert code == 2 and not out.exists()
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_config_file_flag_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"eval_tol": 1e-5}))
        code, out, _ = run_cli(["z", "--t", "100", "--config", str(cfg)], tmp_path)
        assert code == 2 and not out.exists()
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["chain", "--x", "1", "--tau", "10", "--cbar-T", "200", "--cbar-H", "40"],
        ["functional", "--kind", "B", "--x", "1", "--tau", "10", "--l", "1",
         "--cbar-T", "200", "--cbar-H", "40"],
        ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3", "--kind", "B", "--l", "1",
         "--cbar-T", "200", "--cbar-H", "40"],
        ["cbar", "--l", "1", "--T", "200", "--H", "40"],
    ], ids=lambda argv: argv[0])
    def test_corrupt_cache(self, tmp_path, capsys, argv):
        cache = tmp_path / "cache" / "constants.json"
        cache.parent.mkdir()
        cache.write_text('{"cbar/l=1/T=200')
        code, out, _ = run_cli(argv + ["--cache-dir", str(cache.parent)], tmp_path)
        assert code == 2 and not out.exists()
        assert f"error: cannot read constants cache {cache}: " in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {}, {"cbar": 0.75}, {"cbar": "0.75", "spread": 0.01}, {"cbar": True, "spread": 0.01},
        {"cbar": float("nan"), "spread": 0.01}, [0.75, 0.01], 0.75,
    ], ids=["empty", "no-spread", "string", "bool", "nan", "list", "number"])
    def test_malformed_cache_record(self, tmp_path, capsys, record):
        cache = tmp_path / "cache" / "constants.json"
        cache.parent.mkdir()
        cache.write_text(json.dumps({"cbar/l=1/T=200/H=40": record}))
        code, out, _ = run_cli(["chain", "--x", "1", "--tau", "10", "--cbar-T", "200",
                                "--cbar-H", "40", "--cache-dir", str(cache.parent)], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: constants cache {cache} holds no finite cbar and spread "
            "for cbar/l=1/T=200/H=40\n"
        )

    def test_cbar_caches_under_the_working_directory_by_default(self, tmp_path, monkeypatch):
        # the environment names no cache directory: only --cache-dir does
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ZLAB_CACHE_DIR", str(elsewhere))
        code, _, _ = run_cli(["cbar", "--l", "1", "--T", "200", "--H", "40"], tmp_path)
        assert code == 0
        cache = json.loads((tmp_path / ".zetalab_cache" / "constants.json").read_text())
        assert list(cache) == ["cbar/l=1/T=200/H=40"]
        assert list(elsewhere.iterdir()) == []

    def test_cache_dir_on_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code, _, _ = run_cli(["cbar", "--l", "1", "--T", "200", "--H", "40",
                              "--cache-dir", str(tmp_path / "file")], tmp_path)
        assert code == 2
        assert "error: cannot write constants cache " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--manifest"])
    @pytest.mark.parametrize("name", ["", "file/x"], ids=["a-directory", "under-a-file"])
    def test_unwritable_output(self, tmp_path, capsys, flag, name):
        (tmp_path / "file").write_text("")
        paths = {"--out": str(tmp_path / "o.csv"), "--manifest": str(tmp_path / "m.jsonl")}
        paths[flag] = str(tmp_path / name)
        code = main(["theta", "--t", "100"] + [arg for item in paths.items() for arg in item])
        assert code == 2
        assert f"error: cannot write {paths[flag]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["moments", "--kind", "s1moment", "--l", "1", "--from", "100", "--to", "inf"],
         "need 0 <= t_lo <= t_hi <= 1e+06"),
        (["moments", "--kind", "sigma2", "--sigma", "1", "--from", "100", "--to", "inf"],
         "need 0 <= t_lo <= t_hi <= 1e+06"),
        (["moments", "--kind", "critical2", "--from", "100", "--to", "inf"],
         "need 0 <= t_lo <= t_hi <= 1e+06"),
        (["moments", "--kind", "sigma2", "--sigma", "nan", "--from", "100", "--to", "110"],
         "sigma must be finite and >= 1/2 + 0.01"),
        (["moments", "--kind", "sigma2", "--sigma", "inf", "--from", "100", "--to", "110"],
         "sigma must be finite and >= 1/2 + 0.01"),
        (["ladder", "--T", "inf"], "reverse_iterate requires 100 <= T <= 1e+06"),
        (["verify", "--suite", "ladder", "--heights", "inf"],
         "reverse_iterate requires 100 <= T <= 1e+06"),
        (["verify", "--suite", "quotients", "--heights", "inf"],
         "reverse_iterate requires 100 <= T <= 1e+06"),
        (["cbar", "--l", "1", "--T", "inf", "--H", "inf"], "T and H must be positive and finite"),
        # a kind's parameter left out is rejected before any height is used
        (["functional", "--kind", "A", "--x", "1", "--tau", "1"], "kind A requires --sigma"),
        (["functional", "--kind", "B", "--x", "1", "--tau", "1"], "kind B requires --l"),
        (["moments", "--kind", "sigma2", "--from", "100", "--to", "110"],
         "sigma2 requires --sigma"),
        (["moments", "--kind", "s1moment", "--from", "100", "--to", "110"],
         "s1moment requires --l"),
    ], ids=["s1moment", "sigma2", "critical2", "sigma-nan", "sigma-inf", "ladder",
            "verify-ladder", "verify-quotients", "cbar", "A-without-sigma", "B-without-l",
            "sigma2-without-sigma", "s1moment-without-l"])
    def test_non_finite_heights(self, tmp_path, capsys, argv, message):
        code, out, _ = run_cli(argv, tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_z_above_max_height(self, tmp_path, capsys):
        code, out, _ = run_cli(["z", "--t", "1e7"], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: hardy_z requires 0 <= t <= 1e+06\n"

    @pytest.mark.parametrize("argv", [
        ["functional", "--kind", "A", "--x", "1", "--sigma", "0.5", "--tau", "1"],
        ["functional", "--kind", "C", "--x", "1", "--sigma", "0.45", "--tau", "1"],
        ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3", "--sigma", "nan",
         "--tau", "48.6"],
    ], ids=["A", "C", "fermat"])
    def test_sigma_checked_before_the_substitution_constant(self, tmp_path, capsys, argv):
        code, out, _ = run_cli(argv, tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: sigma must be finite and >= 1/2 + 0.01\n"

    @pytest.mark.parametrize("argv", [
        ["theta", "--t", ","], ["z", "--t", ","], ["s", "--t", ", ,"],
        ["functional", "--kind", "A", "--x", "1", "--sigma", "1.0", "--tau", ","],
        ["z", "--t", "100", "--jobs", "0"], ["z", "--t", "100", "--jobs", "-3"],
        ["verify", "--suite", "branch", "--seed", "-1"], ["z", "--t", "1,x"],
    ])
    def test_empty_list_or_jobs_below_1_at_parse(self, tmp_path, capsys, argv):
        code, out, manifest = run_cli(argv, tmp_path)
        assert code == 2 and not out.exists() and not manifest.exists()
        flag = argv[-2]
        assert f"error: argument {flag}: " in capsys.readouterr().err


class TestHeightsAboveMaxHeight:
    """Heights above MAX_HEIGHT = 1e6 stop with exit 2 where they enter, before
    any array is sized by them.  Each case runs in a child under a 2.5 GB
    address-space limit: without the ceiling, all but sigma2 at sigma = 1
    (whose accuracy gate stops it with exit 4) end in a MemoryError."""

    @pytest.mark.parametrize("argv, message", [
        (["cbar", "--l", "1", "--T", "1e9", "--H", "1e8"], r"need 0 <= t_lo <= t_hi <= 1e\+06"),
        (["moments", "--kind", "s1moment", "--l", "1", "--from", "100", "--to", "1e9"],
         r"need 0 <= t_lo <= t_hi <= 1e\+06"),
        (["moments", "--kind", "sigma2", "--sigma", "1", "--from", "100", "--to", "1e9"],
         r"need 0 <= t_lo <= t_hi <= 1e\+06"),
        (["moments", "--kind", "sigma2", "--sigma", "3", "--from", "100", "--to", "1e9"],
         r"need 0 <= t_lo <= t_hi <= 1e\+06"),
        (["gram", "--from", "1e4", "--to", "1e12"], r"Gram index \d+ lies above t = 1e\+06"),
        (["sum", "--kind", "pair", "--from", "1e4", "--to", "1e12"],
         r"Gram index \d+ lies above t = 1e\+06"),
        (["s", "--t", "1e12"], r"s_of_t requires 0 <= t <= 1e\+06"),
        (["verify", "--suite", "gram", "--nu-max", "1000000000000"],
         r"Gram index 1000000000000 lies above t = 1e\+06"),
        (["ladder", "--T", "1e9"], r"reverse_iterate requires 100 <= T <= 1e\+06"),
    ], ids=["cbar", "s1moment", "sigma2", "sigma2-at-3", "gram", "sum", "s", "verify-gram",
            "ladder"])
    def test_exit_2_under_a_memory_limit(self, tmp_path, argv, message):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, 2_500_000_000))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "zetalab.cli", *argv, "--out", "out.csv",
             "--manifest", "m.jsonl", "--cache-dir", "cache"],
            cwd=tmp_path, env=env, preexec_fn=limit, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert re.fullmatch(f"error: {message}\n", proc.stderr), proc.stderr
        assert not (tmp_path / "out.csv").exists()


class TestFermatCommand:
    def test_witness_csv(self, tmp_path):
        code, out, _ = run_cli(
            ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3"], tmp_path
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,z,n,numerator,denominator,is_one,verdict"
        fields = lines[1].split(",")
        assert fields[4] == "91" and fields[5] == "125" and fields[6] == "false"

    def test_rational_beyond_the_float_range(self, tmp_path, capsys):
        # (9^2000 + 9^2000) / 1 has no float; only a functional trace needs one
        argv = ["fermat", "--x", "9", "--y", "9", "--z", "1", "--n", "2000"]
        code, out, _ = run_cli(argv, tmp_path)
        assert code == 0
        assert out.read_text().splitlines()[1].endswith(
            ",1,false,not-one (exact); no functional trace requested")
        code, out, _ = run_cli(argv + ["--tau", "1"], tmp_path, "traced.csv")
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err == ("error: (x^n + y^n)/z^n lies beyond the float range; "
                       "no functional trace can target it\n")


class TestCbarAndChain:
    def test_cbar_then_functional_b(self, tmp_path):
        cache_dir = tmp_path / "cache"
        code, _, _ = run_cli(
            ["cbar", "--l", "1", "--T", "2000", "--H", "200",
             "--cache-dir", str(cache_dir)],
            tmp_path, "cbar.csv",
        )
        assert code == 0
        code, out, _ = run_cli(
            ["functional", "--kind", "B", "--x", "1", "--tau", "1e-3",
             "--l", "1", "--cbar-T", "2000", "--cbar-H", "200",
             "--cache-dir", str(cache_dir)],
            tmp_path, "fb.csv",
        )
        # tau may be too small for the implied height; accept either a clean
        # run or the domain rejection, but never a crash
        assert code in (0, 2)

    def test_fermat_b_records_its_cbar_key(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli(["cbar", "--l", "1", "--T", "2000", "--H", "200", "--cache-dir", cache_dir],
                tmp_path, "cbar.csv")
        code, _, manifest = run_cli(
            ["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3", "--kind", "B",
             "--l", "1", "--cbar-T", "2000", "--cbar-H", "200", "--cache-dir", cache_dir],
            tmp_path, "fermat.csv",
        )
        assert code == 0
        rec = json.loads(manifest.read_text().splitlines()[-1])
        assert rec["cbar_keys"] == ["cbar/l=1/T=2000/H=200"]

    def test_chain_without_cached_cbar_is_2(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["chain", "--x", "1", "--tau", "1", "--cbar-T", "2000", "--cbar-H", "200",
             "--cache-dir", str(tmp_path / "empty")],
            tmp_path,
        )
        assert code == 2 and not out.exists()
        assert "no cached cbar for l=1, T=2000.0, H=200.0" in capsys.readouterr().err

    def test_chain_prints_one_row_per_kind(self, tmp_path, capsys):
        # x = 1e12 lies between A's value and C's here; a PASS/FAIL row that
        # tested the triangle inequality read FAIL on rounding alone
        cache_dir = str(tmp_path / "cache")
        run_cli(["cbar", "--l", "1", "--T", "2000", "--H", "200", "--cache-dir", cache_dir],
                tmp_path, "cbar.csv")
        capsys.readouterr()
        code, out, _ = run_cli(
            ["chain", "--x", "1e12", "--tau", "2.9515787498580386e-10", "--cbar-T", "2000",
             "--cbar-H", "200", "--cache-dir", cache_dir], tmp_path)
        assert code == 0
        header, *rows = out.read_text().splitlines()
        assert header == "kind,T,value,rel_err"
        assert [row.split(",")[:2] for row in rows] == [["A", "10000"], ["B", "10000"],
                                                        ["C", "10000"]]
        assert all(len(row.split(",")) == 4 for row in rows)
        assert capsys.readouterr().out.splitlines() == rows


class TestVerifyCommand:
    def test_ladder_suite(self, tmp_path):
        code, out, _ = run_cli(
            ["verify", "--suite", "ladder", "--heights", "1000"], tmp_path
        )
        assert code == 0
        text = out.read_text()
        assert "ladder-residual-T=1000" in text and "PASS" in text

    def test_failing_suite_is_3(self, tmp_path):
        code, out, _ = run_cli(
            ["verify", "--suite", "asymptotics", "--heights", "1e3,5e3,2e4"], tmp_path
        )
        assert code == 3
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows == [
            ["pair-band-T=1000", "PASS"], ["pair-band-T=5000", "PASS"],
            ["pair-band-T=20000", "PASS"], ["pair-trend", "FAIL"],
            ["fourth-band-T=1000", "FAIL"], ["fourth-band-T=5000", "FAIL"],
            ["fourth-band-T=20000", "FAIL"], ["fourth-trend", "PASS"],
        ]

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_branch_without_heights_is_2(self, tmp_path, n):
        code, out, _ = run_cli(["verify", "--suite", "branch", "--n-heights", n], tmp_path)
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("suite", ["ladder", "quotients"])
    def test_empty_heights_is_2(self, tmp_path, suite, capsys):
        code, out, _ = run_cli(["verify", "--suite", suite, "--heights", ","], tmp_path)
        assert code == 2 and not out.exists()
        assert f"the {suite} suite needs at least one height" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["ladder", "quotients"])
    def test_height_below_100_is_2_not_skipped(self, tmp_path, suite):
        code, out, _ = run_cli(
            ["verify", "--suite", suite, "--heights", "1000,50",
             "--cache-dir", str(tmp_path / "cache")], tmp_path
        )
        assert code == 2 and not out.exists()


class TestCsvCells:
    def test_one_format_per_type(self):
        assert csv_cells([(None, True, False, 10**20, np.float64(1 / 3), 1e20, "a b")]) == [
            ["", "true", "false", "100000000000000000000", "0.333333333333333", "1e+20", "a b"]
        ]


# cheap ops covering every subcommand, each with the leading cells of its
# rows that echo its arguments (None: no such cells); the chain op reads
# the cbar the cbar op caches
EVERY_COMMAND = [
    (["theta", "--t", "1,100.5"], [["1"], ["100.5"]]),
    (["z", "--t", "100.5,250.25"], [["100.5"], ["250.25"]]),
    (["s", "--t=-0,100.5"], [["-0"], ["100.5"]]),
    (["gram", "--from", "100", "--to", "130"], None),
    (["moments", "--kind", "critical2", "--from", "100", "--to", "102"],
     [["critical2", "", "100", "102"]]),
    # a zero-width window: value and per_unit 0
    (["moments", "--kind", "critical2", "--from", "100", "--to", "100"],
     [["critical2", "", "100", "100", "0", "0"]]),
    (["moments", "--kind", "sigma2", "--sigma", "2", "--from", "100", "--to", "101"],
     [["sigma2", "2", "100", "101"]]),
    (["moments", "--kind", "s1moment", "--l", "1", "--from", "100", "--to", "101"],
     [["s1moment", "1", "100", "101"]]),
    (["cbar", "--l", "1", "--T", "200", "--H", "40"], [["1", "200", "40"]]),
    (["ladder", "--T", "200", "--k", "2"], None),
    (["sum", "--kind", "fourth", "--from", "100", "--to", "150"], [["fourth", "100"]]),
    (["functional", "--kind", "A", "--x", "1", "--sigma", "1.0", "--tau", "10,20"],
     [["A", "1", "1", "10"], ["A", "1", "1", "20"]]),
    (["fermat", "--x", "3", "--y", "4", "--z", "5", "--n", "3"], [["3", "4", "5", "3"]]),
    (["chain", "--x", "1", "--tau", "10", "--cbar-T", "200", "--cbar-H", "40"],
     [["A"], ["B"], ["C"]]),
    (["verify", "--suite", "gram", "--nu-max", "50"], None),
]


def test_every_command_writes_its_stdout_under_a_header_of_its_width(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    for i, (argv, echo) in enumerate(EVERY_COMMAND):
        code, out, _ = run_cli(argv + ["--cache-dir", cache_dir], tmp_path, f"{i}.csv")
        assert code == 0, argv
        header, *body = out.read_text().splitlines()
        assert body and all(len(r.split(",")) == len(header.split(",")) for r in body), argv
        assert capsys.readouterr().out.splitlines() == body, argv
        if echo is not None:
            assert [r.split(",")[:len(echo[0])] for r in body] == echo, argv


def test_readme_cli_examples_parse_and_cover_every_command():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line interface", 1)[1].split("```")[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("zetalab ")]
    parser = cli._build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: zetalab {shlex.join(argv)}")
    assert {argv[0] for argv in examples} == set(cli._COMMANDS)


def test_readme_library_examples_bind_to_the_api():
    # each zl.<name>(...) call binds to its function's signature; nothing runs
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```")[0]
    calls = [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", "") == "zl"]
    assert len(calls) >= 10

    def value(node):
        return object() if isinstance(node, ast.Name) else ast.literal_eval(node)

    for call in calls:
        name = call.func.attr
        assert name in zetalab.__all__, name
        try:
            inspect.signature(getattr(zetalab, name)).bind(
                *map(value, call.args), **{kw.arg: value(kw.value) for kw in call.keywords})
        except TypeError as e:
            pytest.fail(f"README example zl.{name}(...) does not bind: {e}")


def test_no_public_callable_takes_config():
    public = [getattr(zetalab, name) for name in zetalab.__all__]
    public = [f for f in public
              if callable(f) and not (inspect.isclass(f) and issubclass(f, Exception))]
    runners = [run for _, _, run in cli._COMMANDS.values()] + list(cli._SUITES.values())
    suites = [f for name, f in vars(verify).items()
              if inspect.isfunction(f) and f.__module__ == verify.__name__
              and not name.startswith("_")]
    assert runners and suites
    takes = [getattr(f, "__qualname__", repr(f)) for f in public + runners + suites
             if "config" in inspect.signature(f).parameters]
    assert takes == []


class TestManifest:
    def test_digest_matches_file(self, tmp_path):
        code, out, manifest = run_cli(
            ["sum", "--kind", "fourth", "--from", "500", "--to", "1000"], tmp_path
        )
        assert code == 0
        rec = json.loads(manifest.read_text().splitlines()[-1])
        digest = rec["outputs"][str(out)]
        assert digest == hashlib.sha256(out.read_bytes()).hexdigest()
        assert "config" not in rec
        assert rec["argv"][0] == "sum" or "sum" in rec["argv"]

    def test_append_only(self, tmp_path):
        _, _, manifest = run_cli(["theta", "--t", "100"], tmp_path, "t1.csv")
        n1 = len(manifest.read_text().splitlines())
        _, _, manifest = run_cli(["theta", "--t", "200"], tmp_path, "t2.csv")
        n2 = len(manifest.read_text().splitlines())
        assert n2 == n1 + 1
