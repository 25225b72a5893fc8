"""Golden CLI run: every subcommand in json, csv and text under
--no-timestamp, plus the exit code and error line of malformed inputs,
compared byte for byte against the files under tests/golden/.

A change that is meant to alter the output rewrites those files by running
this module as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes which outputs moved and why.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from hypertrans.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("json", "csv", "text")
INVARIANTS = ("tau", "tau_t", "tau_strong", "gamma", "gamma_t", "ec_t")

INSTANCES = {
    "c5.hg": "hg 5 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n",
    "p6.hg": "# a path\nhg 6 5\ne 0 1\ne 1 2  # inline comment\ne 2 3\n"
             "e 3 4\ne 4 5\n",
    "star3.hg": "hg 6 3\ne 0 1 2\ne 2 3 4\ne 3 4 5\n",
    "tripath.hg": "hg 7 3\ne 0 1 2\ne 2 3 4\ne 4 5 6\n",
    # duals of K4 and K5: 2-regular and linear, so ttk ends in its
    # forest (k = 3) and tree (k = 4) terminal cases
    "k4dual.hg": "hg 6 4\ne 0 1 2\ne 0 3 4\ne 1 3 5\ne 2 4 5\n",
    "k5dual.hg": "hg 10 5\ne 0 1 2 3\ne 0 4 5 6\ne 1 4 7 8\ne 2 5 7 9\n"
                 "e 3 6 8 9\n",
    "ring4.hg": "hg 8 4\ne 0 1 2 3\ne 2 3 4 5\ne 4 5 6 7\ne 0 1 6 7\n",
    "r3.hg": "hg 10 8\ne 0 3 4\ne 0 7 8\ne 1 2 9\ne 1 3 6\ne 1 7 9\n"
             "e 2 4 5\ne 2 5 6\ne 4 5 8\n",
    "r4.hg": "hg 12 10\ne 0 1 6 8\ne 0 1 6 9\ne 0 1 9 10\ne 0 2 6 10\n"
             "e 0 3 7 10\ne 1 4 5 8\ne 1 4 10 11\ne 3 7 9 10\ne 4 5 6 11\n"
             "e 5 6 8 9\n",
    # ttk's degree-1 step, with a repair, then a covering pair
    "deg1.hg": "hg 10 6\ne 0 1 5\ne 0 2 8\ne 1 4 6\ne 2 5 8\ne 3 6 9\n"
               "e 3 7 9\n",
    "loose.hg": "hg 5 2\ne 0 1\ne 2 3\n",
    "k4.g": "g 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n",
    "petersen.g": "g 10 15\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\ne 0 5\n"
                  "e 1 6\ne 2 7\ne 3 8\ne 4 9\ne 5 7\ne 7 9\ne 6 9\ne 6 8\n"
                  "e 5 8\n",
    "k2.g": "g 2 1\ne 0 1\n",
}

MALFORMED = {
    "empty.hg": "",
    "comments.hg": "# nothing here\n\n   # nor here\n",
    "unknown.hg": "hx 3 2\ne 0 1\ne 1 2\n",
    "short-header.hg": "hg 3\ne 0 1\n",
    "text-count.g": "g 3 two\ne 0 1\ne 1 2\n",
    "negative.hg": "hg -1 0\n",
    "count.hg": "hg 3 3\ne 0 1\ne 1 2\n",
    "count.g": "g 3 1\ne 0 1\ne 1 2\n",
    "vertex.hg": "hg 3 2\ne 0 a\ne 1 2\n",
    "vertex.g": "g 3 2\ne 0 1\ne 1 x\n",
    "edge-line.hg": "hg 3 1\nf 0 1\n",
    "three.g": "g 3 1\ne 0 1 2\n",
    "one.g": "g 3 1\ne 0\n",
    "loop.g": "g 2 1\ne 1 1\n",
    "loop.hg": "hg 2 1\ne 1 1\n",
    "parallel.g": "g 2 2\ne 0 1\ne 1 0\n",
    "range.hg": "hg 3 1\ne 0 3\n",
    "range.g": "g 3 1\ne -1 2\n",
    "size1.hg": "hg 3 2\ne 0\ne 1 2\n",
    "empty-edge.hg": "hg 3 1\ne\n",
    "cap-n.hg": "hg 10001 1\ne 0 1\n",
    "cap-m.g": "g 3 10001\ne 0 1\n",
}


def _solve_runs():
    runs = []
    for name in ("c5.hg", "p6.hg", "star3.hg", "k4dual.hg", "r3.hg", "r4.hg",
                 "petersen.g"):
        for inv in INVARIANTS:
            runs.append(["solve", name, "--invariant", inv])
    for inv in ("tau_t", "ec_t"):
        runs.append(["solve", "c5.hg", "--invariant", inv, "--oracle"])
    runs.append(["solve", "k2.g", "--invariant", "ec_t"])
    return runs


def _construct_runs():
    runs = [["construct", f, "--method", "tt2"]
            for f in ("c5.hg", "p6.hg", "petersen.g", "star3.hg")]
    runs += [["construct", f, "--method", "ttk"]
             for f in ("star3.hg", "tripath.hg", "deg1.hg", "k4dual.hg",
                       "k5dual.hg", "ring4.hg", "r3.hg", "r4.hg", "c5.hg")]
    runs += [["construct", f, "--method", "tec-forest"]
             for f in ("petersen.g", "k4.g", "c5.hg", "p6.hg", "star3.hg")]
    runs += [
        ["construct", "star3.hg", "--method", "strong", "--seed", "4"],
        ["construct", "ring4.hg", "--method", "strong", "--c", "3.0",
         "--seed", "7"],
        ["construct", "r4.hg", "--method", "strong", "--seed", "1"],
        ["construct", "c5.hg", "--method", "strong"],
        ["construct", "ring4.hg", "--method", "strong-trials", "--c", "3.0",
         "--trials", "50", "--seed", "8"],
        ["construct", "r4.hg", "--method", "strong-trials", "--trials", "30",
         "--seed", "2"],
    ]
    return runs


def _xform_runs():
    return [
        ["xform", "c5.hg", "--op", "onh"],
        ["xform", "p6.hg", "--op", "onh"],
        ["xform", "star3.hg", "--op", "onh"],
        ["xform", "k4.g", "--op", "onh"],
        ["xform", "loose.hg", "--op", "onh"],
        ["xform", "star3.hg", "--op", "two-section"],
        ["xform", "r3.hg", "--op", "two-section"],
        ["xform", "c5.hg", "--op", "dual"],
        ["xform", "k4dual.hg", "--op", "dual"],
        ["xform", "ring4.hg", "--op", "dual"],
        ["xform", "p6.hg", "--op", "dual"],
        ["xform", "tripath.hg", "--op", "shrink"],
        ["xform", "c5.hg", "--op", "shrink"],
        ["xform", "c5.hg", "--op", "family-fk", "--k", "2"],
        ["xform", "star3.hg", "--op", "family-fk", "--k", "3"],
        ["xform", "k4dual.hg", "--op", "family-fk-star", "--k", "3"],
        ["xform", "c5.hg", "--op", "family-fk-star", "--k", "2"],
        ["xform", "c5.hg", "--op", "family-fk"],
    ]


GROUPS = {
    "solve": _solve_runs,
    "construct": _construct_runs,
    "xform": _xform_runs,
    "gen": lambda: [
        ["gen", "--k", "3", "--n", "7", "--m", "4", "--seed", "9",
         "--require-class"],
        ["gen", "--k", "2", "--n", "8", "--m", "10", "--seed", "1"],
        ["gen", "--k", "4", "--n", "9", "--m", "5", "--seed", "2",
         "--require-class"],
        ["gen", "--k", "2", "--n", "3", "--m", "1", "--seed", "1",
         "--require-class"],
    ],
    "search": lambda: [
        ["search", "--k", "2", "--budget", "40", "--seed", "5"],
        ["search", "--k", "3", "--budget", "25", "--seed", "1",
         "--n-max", "6", "--m-max", "3"],
    ],
    "verify": lambda: [
        ["verify", f] for f in ("c5.hg", "p6.hg", "star3.hg", "k4dual.hg",
                                "k5dual.hg", "r3.hg", "r4.hg", "loose.hg",
                                "petersen.g")
    ],
    "sweep": lambda: [
        ["sweep", "--k-list", "3,4", "--trials", "20", "--seed", "1"],
    ],
}


def _malformed_runs():
    runs = []
    for name in MALFORMED:
        runs.append(["solve", name, "--invariant", "tau"])
        runs.append(["xform", name, "--op", "onh"])
    return runs


def _call(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [f"### {' '.join(argv)}", f"exit: {code}"]
    lines += [f"stderr: {ln}" for ln in err.getvalue().splitlines()]
    return "\n".join(lines) + "\n" + out.getvalue()


def render(workdir) -> dict[str, str]:
    """Golden file name -> expected text, running every command in workdir,
    which receives the input files; commands name them relative to it."""
    for name, text in {**INSTANCES, **MALFORMED}.items():
        (Path(workdir) / name).write_text(text)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        out = {}
        for group, runs in GROUPS.items():
            out[f"{group}.txt"] = "".join(
                _call(argv + ["--format", fmt, "--no-timestamp"])
                for argv in runs() for fmt in FORMATS
            )
        out["malformed.txt"] = "".join(
            _call(argv + ["--no-timestamp"]) for argv in _malformed_runs()
        )
    finally:
        os.chdir(here)
    return out


def test_golden_cli_outputs(tmp_path):
    got = render(tmp_path)
    assert sorted(got) == sorted(p.name for p in GOLDEN.glob("*.txt"))
    for name, text in got.items():
        # bytes, not text: the csv writer ends its rows with \r\n
        assert text == (GOLDEN / name).read_bytes().decode(), f"{name} differs"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rendered = render(tmp)
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name, text in rendered.items():
        (GOLDEN / name).write_bytes(text.encode())
    print(f"wrote {len(rendered)} files to {GOLDEN}", file=sys.stderr)
