"""Seeded fuzz of the command line's input text.

A few hundred mutants of small valid instance texts (bytes flipped,
bytes deleted, texts cut short, header tokens or edge numbers edited,
lines dropped or repeated) go through `cli.main` in-process for `solve --invariant tau_t`,
`solve --invariant ec_t` and `verify`.  No exception may escape main, no
traceback may reach stderr, and every exit code must be 0 (done), 1
(infeasible, or a bound row fails) or 2 (the input was rejected).  The
mutants come from one seeded generator, so a failure names a text that
reproduces it.
"""

import random

import pytest

from hypertrans.cli import main

BASES = (
    "hg 5 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n",
    "hg 3 2\ne 0 1\ne 1 2\n",
    "hg 8 4\ne 0 1 2 3\ne 2 3 4 5\ne 4 5 6 7\ne 0 1 6 7\n",
    "hg 7 5\ne 0 1 2\ne 2 3 4\ne 4 5 6\ne 0 3 6\ne 1 4 5\n",
    "# a comment line\nhg 6 3\ne 0 1 2\n\ne 3 4 5\ne 1 2 3\n",
    "g 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n",
    "g 6 6\ne 0 1\ne 1 2\ne 2 0\ne 3 4\ne 4 5\ne 3 5\n",
    "g 2 1\ne 0 1\n",
)
# replacements for one token of the header line
HEADER_TOKENS = ("hg", "g", "h", "", "0", "1", "2", "-1", "3.5", "x",
                 "10000", "10001", "99999999999999999999", "0x10", "٣")
TEXT = b"0123456789 \n\t#-eg"
MUTANTS = 300
COMMANDS = (["solve", "--invariant", "tau_t"],
            ["solve", "--invariant", "ec_t"],
            ["verify"])


def _mutate(rng: random.Random, text: str) -> bytes:
    data = bytearray(text.encode())
    kind = rng.randrange(6)
    if kind == 0:        # flip a few bytes, to any value or to one of TEXT
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = (
                rng.randrange(256) if rng.random() < 0.5
                else rng.choice(TEXT))
    elif kind == 1:      # delete a few bytes
        for _ in range(rng.randint(1, 3)):
            if data:
                del data[rng.randrange(len(data))]
    elif kind == 2:      # cut short
        del data[rng.randrange(len(data)):]
    elif kind == 3:      # edit a header token
        lines = text.split("\n")
        h = next(i for i, line in enumerate(lines)
                 if line.startswith(("hg", "g")))
        tokens = lines[h].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(HEADER_TOKENS)
        lines[h] = " ".join(tokens)
        data = bytearray("\n".join(lines).encode())
    elif kind == 4:      # set one number of an edge line
        lines = text.split("\n")
        edges = [i for i, line in enumerate(lines) if line.startswith("e ")]
        i = rng.choice(edges)
        tokens = lines[i].split(" ")
        tokens[rng.randrange(1, len(tokens))] = str(rng.randint(-1, 9))
        lines[i] = " ".join(tokens)
        data = bytearray("\n".join(lines).encode())
    else:                # drop or repeat a line
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        if rng.random() < 0.5:
            del lines[i]
        else:
            lines.insert(i, lines[i])
        data = bytearray("\n".join(lines).encode())
    return bytes(data)


def _mutants():
    rng = random.Random(2026)
    return [_mutate(rng, rng.choice(BASES)) for _ in range(MUTANTS)]


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    path = tmp_path / "fuzz.txt"
    codes = set()
    for data in _mutants():
        path.write_bytes(data)
        for command in COMMANDS:
            try:
                code = main(command + [str(path), "--no-timestamp"])
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{command} raised {exc!r} on {data!r}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (command, code, data, err)
            assert "Traceback" not in err, (command, data, err)
            codes.add(code)
    # the mutants reach every exit, so the check is not all rejections
    assert codes == {0, 1, 2}, codes
