"""End-to-end command line checks: output shape, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from hypertrans import cli
from hypertrans.cli import main
from hypertrans.construct import (
    randomized_strong_transversal,
    strong_expected_bound,
)
from hypertrans.hcore import from_text
from hypertrans.solve import is_strong_transversal

C5 = "hg 5 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n"
P3 = "hg 3 2\ne 0 1\ne 1 2\n"
K2 = "g 2 1\ne 0 1\n"
RING4 = "hg 8 4\ne 0 1 2 3\ne 2 3 4 5\ne 4 5 6 7\ne 0 1 6 7\n"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--no-timestamp"])
    return code, json.loads(out) if out else None, err


def test_solve_cycle(tmp_path, capsys):
    f = tmp_path / "c5.hg"
    f.write_text(C5)
    code, payload, _ = _run_json(
        capsys, ["solve", "--invariant", "tau_t", str(f)]
    )
    assert code == 0
    res = payload["result"]
    assert res["invariant"] == "tau_t" and res["value"] == 4
    assert len(res["witness"]) == 4
    assert res["provenance"] == "solver"
    assert payload["config"]["invariant"] == "tau_t"
    assert "generated_at" not in payload


def test_output_reproducible_without_timestamp(tmp_path, capsys):
    f = tmp_path / "c5.hg"
    f.write_text(C5)
    argv = ["solve", "--invariant", "gamma_t", str(f), "--no-timestamp"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert (code1, out1) == (code2, out2)
    code3, out3, _ = _run(capsys, argv[:-1])
    assert "generated_at" in json.loads(out3)


def test_exit_codes(tmp_path, capsys):
    code, _, err = _run(capsys, ["solve", "--invariant", "tau_t",
                                 str(tmp_path / "missing.hg")])
    assert code == 2 and "error" in err
    code, _, err = _run(capsys, ["solve", "--invariant", "bogus",
                                 str(tmp_path / "missing.hg")])
    assert code == 2
    code, _, _ = _run(capsys, ["gen", "--k", "2", "--n", "4", "--m", "2",
                               "--seed", "-1"])
    assert code == 2
    code, _, _ = _run(capsys, [])
    assert code == 2


def test_gen_respects_the_header_cap(capsys):
    # solve refuses a header above the cap, so gen must not write one
    for n, m in (("10001", "2"), ("12", "10001")):
        code, out, err = _run(capsys, ["gen", "--k", "2", "--n", n,
                                       "--m", m, "--seed", "0"])
        assert code == 2 and out == ""
        assert err == "error: --n and --m may be at most 10000\n"
    code, payload, _ = _run_json(capsys, ["gen", "--k", "2", "--n", "10000",
                                          "--m", "2", "--seed", "0"])
    assert code == 0 and payload["result"]["text"].startswith("hg 10000 2\n")


def test_c_must_exceed_one(tmp_path, capsys):
    # NaN fails every comparison, so `c <= 1` once let it through
    g = tmp_path / "ring4.hg"
    g.write_text(RING4)
    for c in ("nan", "1", "0.5"):
        for argv in (["construct", "--method", "strong", str(g)],
                     ["construct", "--method", "strong-trials", str(g),
                      "--trials", "4"],
                     ["sweep", "--k-list", "3", "--trials", "4"]):
            code, out, err = _run(capsys, argv + ["--c", c])
            assert code == 2 and out == ""
            assert err == f"error: c must exceed 1, got {float(c)}\n"


def test_infeasible_is_exit_one(tmp_path, capsys):
    f = tmp_path / "k2.g"
    f.write_text(K2)
    code, payload, _ = _run_json(
        capsys, ["solve", "--invariant", "ec_t", str(f)]
    )
    assert code == 1
    assert payload["result"]["value"] == "infeasible"
    assert payload["result"]["reason"]


def test_verify_generated_expansion(tmp_path, capsys):
    base = tmp_path / "p3.hg"
    base.write_text(P3)
    code, payload, _ = _run_json(
        capsys, ["xform", "--op", "family-fk", "--k", "2", str(base)]
    )
    assert code == 0
    inst = tmp_path / "f2.hg"
    inst.write_text(payload["result"]["text"])
    code, payload, _ = _run_json(capsys, ["verify", str(inst)])
    assert code == 0
    assert payload["result"]["all_hold"]
    rows = {r["theorem"]: r for r in payload["result"]["rows"]}
    assert rows["T_main2"]["slack"] == "0"  # expansion meets the bound exactly


def test_verify_skips_out_of_class(tmp_path, capsys):
    # isolated vertex and isolated edges: every theorem row is skipped,
    # the solver-only chain rows still run, nothing fails
    f = tmp_path / "loose.hg"
    f.write_text("hg 5 2\ne 0 1\ne 2 3\n")
    code, payload, _ = _run_json(capsys, ["verify", str(f)])
    assert code == 0
    res = payload["result"]
    assert res["all_hold"] and not res["in_class"]
    names = {r["theorem"] for r in res["rows"]}
    assert names == {"chain_tau", "chain_strong"}
    assert len(res["skipped"]) == 9  # eight theorems plus the floor block


def test_gen_solve_roundtrip(tmp_path, capsys):
    code, payload, _ = _run_json(
        capsys, ["gen", "--k", "3", "--n", "7", "--m", "4", "--seed", "9",
                 "--require-class"]
    )
    assert code == 0
    text1 = payload["result"]["text"]
    code, payload2, _ = _run_json(
        capsys, ["gen", "--k", "3", "--n", "7", "--m", "4", "--seed", "9",
                 "--require-class"]
    )
    assert payload2["result"]["text"] == text1
    f = tmp_path / "r.hg"
    f.write_text(text1)
    code, payload3, _ = _run_json(
        capsys, ["solve", "--invariant", "tau_t", str(f)]
    )
    assert code == 0 and payload3["result"]["value"] >= 2


def test_search_small_budget(capsys):
    code, payload, _ = _run_json(
        capsys, ["search", "--k", "2", "--budget", "40", "--seed", "5"]
    )
    assert code == 0
    res = payload["result"]
    assert res["best_ratio"] == "2/5" and res["mode"] == "exhaustive"
    assert res["witness"]["text"].startswith("hg ")


def test_construct_subcommands(tmp_path, capsys):
    f = tmp_path / "c5.hg"
    f.write_text(C5)
    code, payload, _ = _run_json(capsys, ["construct", "--method", "tt2",
                                          str(f)])
    assert code == 0
    res = payload["result"]
    assert res["size"] <= 4 and res["guarantee"] == "4"
    assert res["provenance"]["set"] == "construction"
    g = tmp_path / "ring4.hg"
    g.write_text("hg 8 4\ne 0 1 2 3\ne 2 3 4 5\ne 4 5 6 7\ne 0 1 6 7\n")
    code, payload, _ = _run_json(
        capsys, ["construct", "--method", "strong-trials", str(g),
                 "--c", "3.0", "--trials", "50", "--seed", "8"]
    )
    assert code == 0
    res = payload["result"]
    assert res["mean_size"] <= res["bound"] and res["all_valid"]
    # k = 2 with that c pushes the selection probability past 1
    code, _, err = _run(capsys, ["construct", "--method", "strong-trials",
                                 str(f), "--c", "3.0"])
    assert code == 2 and "exceeds 1" in err


def test_xform_precondition_is_usage_error(tmp_path, capsys):
    f = tmp_path / "p3.hg"
    f.write_text(P3)
    code, _, err = _run(capsys, ["xform", "--op", "dual", str(f)])
    assert code == 2 and "error" in err


def test_text_and_csv_formats(tmp_path, capsys):
    f = tmp_path / "c5.hg"
    f.write_text(C5)
    code, out, _ = _run(capsys, ["verify", str(f), "--format", "text",
                                 "--no-timestamp"])
    assert code == 0
    assert out.startswith("command: verify")
    assert "theorem=T_b2" in out
    code, out, _ = _run(capsys, ["sweep", "--k-list", "4", "--trials", "20",
                                 "--seed", "1", "--format", "csv",
                                 "--no-timestamp"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0].startswith("k,n,m,reference")
    assert len(lines) == 2


def test_csv_rejects_nothing_weird(tmp_path, capsys):
    # csv of a scalar result flattens to a single row
    f = tmp_path / "c5.hg"
    f.write_text(C5)
    code, out, _ = _run(capsys, ["solve", "--invariant", "tau", str(f),
                                 "--format", "csv", "--no-timestamp"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0].split(",")[:2] == ["invariant", "value"]
    assert lines[1].split(",")[:2] == ["tau", "3"]


def test_construct_strong_all_formats(tmp_path, capsys):
    text = "hg 6 3\ne 0 1 2\ne 2 3 4\ne 3 4 5\n"
    f = tmp_path / "k3.hg"
    f.write_text(text)
    H = from_text(text)
    argv = ["construct", "--method", "strong", str(f), "--seed", "4",
            "--no-timestamp", "--format"]
    code, out, err = _run(capsys, argv + ["json"])
    assert code == 0 and not err
    res = json.loads(out)["result"]
    assert tuple(res["set"]) == randomized_strong_transversal(H, 2.0, 4)
    assert is_strong_transversal(H, res["set"])
    assert res["size"] == len(res["set"])
    # a bound on the expected size, which one run may exceed
    assert res["expected_size_bound"] == strong_expected_bound(H, 2.0)
    assert res["provenance"] == {"set": "construction",
                                 "expected_size_bound": "formula"}
    chosen = " ".join(map(str, res["set"]))
    code, out, _ = _run(capsys, argv + ["csv"])
    rows = list(csv.DictReader(
        ln for ln in out.splitlines() if not ln.startswith("#")))
    assert code == 0 and len(rows) == 1
    assert rows[0]["set"] == chosen and rows[0]["size"] == str(res["size"])
    assert rows[0]["expected_size_bound"] == str(res["expected_size_bound"])
    code, out, _ = _run(capsys, argv + ["text"])
    lines = out.splitlines()
    assert code == 0
    assert f"  set: {chosen}" in lines and f"  size: {res['size']}" in lines
    assert f"  expected_size_bound: {res['expected_size_bound']}" in lines


def test_runtime_failure_is_exit_three(tmp_path, capsys, monkeypatch):
    # one edge on three vertices always leaves a vertex isolated
    code, out, err = _run(capsys, ["gen", "--k", "2", "--n", "3", "--m", "1",
                                   "--seed", "1", "--require-class"])
    assert code == 3 and out == ""
    assert err.startswith("error: no in-class instance")
    assert err.count("\n") == 1 and "Traceback" not in err

    def exhausted(obj, invariant):
        raise MemoryError

    monkeypatch.setattr(cli, "solve", exhausted)
    f = tmp_path / "c5.hg"
    f.write_text(C5)
    code, out, err = _run(capsys, ["solve", str(f), "--invariant", "tau"])
    assert code == 3 and out == "" and err == "error: out of memory\n"


def test_jobs_validated(tmp_path, capsys, monkeypatch):
    g = tmp_path / "ring4.hg"
    g.write_text(RING4)
    runs = (["construct", "--method", "strong-trials", str(g), "--c", "3.0",
             "--trials", "8", "--seed", "2"],
            ["sweep", "--k-list", "3", "--trials", "8", "--seed", "2"])
    for argv in runs:
        for bad in ("0", "-1"):
            code, out, err = _run(capsys, argv + ["--jobs", bad])
            assert code == 2 and out == "" and "jobs" in err
        results = []
        for jobs in ("1", "2"):
            code, payload, _ = _run_json(capsys, argv + ["--jobs", jobs])
            assert code == 0
            results.append(payload["result"])
        assert results[0] == results[1]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    assert cli._workers(2) == 1


_POOL_MODULES = ("concurrent.futures", "multiprocessing")


def test_startup_loads_no_process_pool(tmp_path):
    # importing the CLI, and default runs of the two subcommands that take
    # --jobs, leave the process pool unloaded; --jobs 2 loads it
    g = tmp_path / "ring4.hg"
    g.write_text(RING4)
    child = (
        "import contextlib, io, sys\n"
        "import hypertrans.cli as cli\n"
        "def pool():\n"
        f"    return [m for m in {_POOL_MODULES!r} if m in sys.modules]\n"
        "assert pool() == [], ('import', pool())\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        f"trials = ['construct', '--method', 'strong-trials', {str(g)!r},\n"
        "          '--c', '3.0', '--trials', '8', '--seed', '2']\n"
        "run(*trials)\n"
        "run('sweep', '--k-list', '3', '--trials', '8', '--seed', '2')\n"
        "assert pool() == [], ('default runs', pool())\n"
        "run(*trials, '--jobs', '2')\n"
        "print(*pool())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # the pool runs only on a machine with two or more CPUs
    if (os.cpu_count() or 1) > 1:
        assert run.stdout.split() == list(_POOL_MODULES)


def test_python_dash_m_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "hypertrans", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: hypertrans")


def test_parser_is_reused_without_carrying_state(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; a usage error, then two
    # subcommands whose --cap defaults differ (16 and 24), must each print
    # what a fresh interpreter prints
    p3 = tmp_path / "p3.hg"
    p3.write_text(P3)
    c5 = tmp_path / "c5.hg"
    c5.write_text(C5)
    runs = (
        ["construct", str(p3), "--method", "tec-forest", "--cap", "x"],
        ["construct", str(p3), "--method", "tec-forest", "--no-timestamp"],
        ["solve", str(c5), "--invariant", "tau_t", "--oracle",
         "--no-timestamp"],
    )
    monkeypatch.setenv("COLUMNS", "80")
    in_process = [_run(capsys, argv) for argv in runs]
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    assert [json.loads(out)["config"]["cap"] for _, out, _ in in_process[1:]] \
        == [16, 24]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    for argv, (code, out, err) in zip(runs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "hypertrans", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)
