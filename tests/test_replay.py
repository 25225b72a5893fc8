"""Replay gate for the exact core: a fixed, seeded population of small
instances, in the benchmark pool's shapes (k 2..6, n <= 11, m <= 6), runs
through all six invariants, and so does each instance's open-neighborhood
image and two-section image.  Each invariant gets two sha256 digests: one
over every outcome, (value, witness) or the InfeasibleError text, and one
over the node counts.  They pin the values, the witnesses and the node
counts apart, so a change to the reductions, the greedy incumbent or the
branching order that moves any of them fails here, and a change that is
meant to prune more can show that it moved only the nodes.  A change meant
to move them updates EXPECTED and says why in CHANGES.md.

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
    "tau": "3ee2c5e759966aeb07315f97438db73d213b135d06ee6bc2db5277ff419183f1",
    "tau_t": "07605f99fd84225054e9a0a0529754d82ff0b6a7b7051f556fe57f7647671a67",
    "tau_strong": "fac4ffe092eadf17f1ff2556f66109e6b84946dd8516315dc93530b703cd523e",
    "gamma": "78f54f01c40f7b433ba87cfe9a94174c065df44906a1e9d184cd18a61f6ce6c3",
    "gamma_t": "04f937a5c9af3be984480c78e83d1a3099cf9ad2679e7d8b51e63c2469a2e2cc",
    "ec_t": "e61a51dc21eec8292805fc4a83e3a1fc45ef331809234340c60611e2c82ffbbe",
    "tau.nodes": "7b3248f598899b05c15d9be72c86df1b6cd66353a8a7d7beda2dca8b86d74243",
    "tau_t.nodes": "6ea68da9e872ce88d187dcd48d13deac63bdbdb42e9ddcc9253ed79e6af623ad",
    "tau_strong.nodes": "4d80633536b73bc6dd928149183fc757cd2e82731cb54773a489fb4d0a363230",
    "gamma.nodes": "784f87a4d7c6267389aa7ef07dbf81cb4377133c7ddd2790ab753a7d68a2e729",
    "gamma_t.nodes": "5aa56bfe1e7e2c9d179b41e4bf1000f5c5744ad5d2671ca67ceae67cead5bfea",
    "ec_t.nodes": "cde4813a4ffb123899be3874158dacd350198f2070bf486b026227fd3b0cb63d",
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
                hashes[f"{inv}.nodes"].update(repr((idx, image, nodes)).encode())
    return {"calls": calls, **{key: h.hexdigest() for key, h in hashes.items()}}


def _part(digests, nodes):
    return {k: v for k, v in digests.items() if k.endswith(".nodes") == nodes}


def test_min_selection_replay():
    """Values, witnesses and infeasibility messages."""
    assert _part(replay_digests(), False) == _part(EXPECTED, False)


def test_min_selection_replay_nodes():
    assert _part(replay_digests(), True) == _part(EXPECTED, True)


if __name__ == "__main__":
    for key, value in replay_digests().items():
        print(f"    {json.dumps(key)}: {json.dumps(value)},")
