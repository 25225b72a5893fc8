"""Replay gate for the exact core: a fixed, seeded population of small
instances, in the benchmark pool's shapes (k 2..6, n <= 11, m <= 6), runs
through all six invariants, and so does each instance's open-neighborhood
image and two-section image.  Each invariant gets three sha256 digests: one
over every outcome, (value, witness) or the InfeasibleError text, one over
the values alone, the value or the InfeasibleError text with no witness, and
one over the node counts.  They pin the values, the witnesses and the node
counts apart, so a change to the reductions, the greedy incumbent or the
branching order that moves any of them fails here, and a change that is
meant to prune more can show that it moved only the nodes, or only the
nodes and some witnesses.  A change meant to move them updates EXPECTED and
says why in CHANGES.md.

Run as a script (`PYTHONPATH=src python3 tests/test_replay.py`) it prints
the digests.
"""

import functools
import hashlib
import json
import math

from hypertrans.construct import SplitMix64, split_seed
from hypertrans.solve import (
    InfeasibleError, ec_t, gamma, gamma_t, tau, tau_strong, tau_t,
)
from hypertrans.xform import onh, two_section
from hypertrans.xsearch import random_hypergraph

INSTANCES = 240

EXPECTED = {
    "calls": 4110,
    "tau": "81a137cb5ca8c3d2923d353271f4af757f25a4dd8abf062d46b679bfa54d7665",
    "tau_t": "07605f99fd84225054e9a0a0529754d82ff0b6a7b7051f556fe57f7647671a67",
    "tau_strong": "fac4ffe092eadf17f1ff2556f66109e6b84946dd8516315dc93530b703cd523e",
    "gamma": "78f54f01c40f7b433ba87cfe9a94174c065df44906a1e9d184cd18a61f6ce6c3",
    "gamma_t": "04f937a5c9af3be984480c78e83d1a3099cf9ad2679e7d8b51e63c2469a2e2cc",
    "ec_t": "67547aa2398d3d96edcc46d0a782e5704e535e6390f0b99946f4279f7f6a67f2",
    "tau.values": "2cadaf409b9908b3110d4aa864bec24a59e679df95e476a2310abf264ca3e513",
    "tau_t.values": "1266d92c8fc20fc3f1c45ddf511ec37aca070ef9ed753404771243a442e27eaf",
    "tau_strong.values": "24c706c1a30cc1a3dce7394256d7996661ead78a7c44016f1a524ef773077e49",
    "gamma.values": "55d4245322c307e815526d1aef4984fdb5a97459f223caec5b8bbce8542bb01d",
    "gamma_t.values": "0a6476ff19bc2c3f80aea34bf305b77b9b54aee89529cf8fdb6259dd9dfbb89e",
    "ec_t.values": "f37949f705968102cd01fb40a176ae3b96ae14df2562a0b67d6bdfec1da1ca05",
    "tau.nodes": "5c34f7d5081018af5aa04f879c3bac13856b7cc9a8ebc271bd3f0aa51898fac9",
    "tau_t.nodes": "db34fbdaab46ba7d18e67af149088b9dd24f8aa3c759d3e52ebf68845cd08b7b",
    "tau_strong.nodes": "2fa42a37f36ff4d6a984436a60fb89b134e7d08f8e0f0ca7e5e91e991c04dc5e",
    "gamma.nodes": "b37bacc8913851ba6895e062e649cbc7e3c06514d22e364113f1a5b8a6c9bf05",
    "gamma_t.nodes": "0e10fd1d58b3a0394164d28170169f2ebb141a7d326e3585ce1858567a5d35a8",
    "ec_t.nodes": "15d7962b1f91d8c66e0a8343f2c487964e59632b8ddb1527e0e2e1a1e040494a",
}

_HYPERGRAPH_SOLVERS = {
    "tau": tau, "tau_t": tau_t, "tau_strong": tau_strong,
    "gamma": gamma, "gamma_t": gamma_t,
}


def _shape(rng):
    """The pool's shapes: criterion-06 ones for k <= 3, criterion-05 above."""
    k = 2 + rng.randrange(5)
    if k <= 3:
        n = k + 1 + rng.randrange(10 - k)
        m = 2 + rng.randrange(min(4, math.comb(n, k) - 1))
    else:
        n = k + 1 + rng.randrange(12 - k)
        m = 2 + rng.randrange(min(5, math.comb(n, k) - 1))
    return k, n, m


def _population():
    """In-class draws, and every fourth a raw draw, whose isolated vertices
    and edges make some invariants infeasible."""
    rng = SplitMix64(split_seed(2026, 9))
    out = []
    for i in range(INSTANCES):
        k, n, m = _shape(rng)
        out.append(random_hypergraph(k, n, m, rng.next_u64(),
                                     require_class=i % 4 != 3))
    return out


def _images(H):
    yield "H", H
    try:
        yield "onh", onh(H)
    except ValueError:   # an isolated vertex has no neighborhood
        pass
    yield "2sec", two_section(H).to_hypergraph()


def _outcome(fn, obj):
    """((value, witness) or the InfeasibleError text, nodes or None)."""
    try:
        res = fn(obj)
    except InfeasibleError as exc:
        return ("infeasible", str(exc)), None
    return (res.value, res.witness), res.nodes


@functools.cache
def replay_digests() -> dict:
    hashes = {key: hashlib.sha256() for key in EXPECTED if key != "calls"}
    calls = 0
    for idx, H in enumerate(_population()):
        for image, X in _images(H):
            runs = [(inv, fn, X) for inv, fn in _HYPERGRAPH_SOLVERS.items()]
            runs.append(("ec_t", ec_t, two_section(X)))
            for inv, fn, obj in runs:
                calls += 1
                result, nodes = _outcome(fn, obj)
                hashes[inv].update(repr((idx, image, result)).encode())
                value = result if nodes is None else result[0]
                hashes[f"{inv}.values"].update(
                    repr((idx, image, value)).encode())
                hashes[f"{inv}.nodes"].update(repr((idx, image, nodes)).encode())
    return {"calls": calls, **{key: h.hexdigest() for key, h in hashes.items()}}


def _part(digests, suffix):
    return {k: v for k, v in digests.items()
            if k.partition(".")[2] == suffix}


def test_min_selection_replay():
    """Values, witnesses and infeasibility messages."""
    assert _part(replay_digests(), "") == _part(EXPECTED, "")


def test_min_selection_replay_values():
    """Values and infeasibility messages, whichever optimum is the witness."""
    assert _part(replay_digests(), "values") == _part(EXPECTED, "values")


def test_min_selection_replay_nodes():
    assert _part(replay_digests(), "nodes") == _part(EXPECTED, "nodes")


if __name__ == "__main__":
    for key, value in replay_digests().items():
        print(f"    {json.dumps(key)}: {json.dumps(value)},")
