"""Replay gate for the exact core: a fixed, seeded population of small
instances, in the benchmark pool's shapes (k 2..6, n <= 11, m <= 6), runs
through all six invariants, and so does each instance's open-neighborhood
image and two-section image.  Every outcome, (value, witness, nodes) or the
InfeasibleError text, feeds one sha256 per invariant.  The digests pin the
values, the witnesses and the node counts, so a change to the reductions,
the greedy incumbent or the branching order that moves any of them fails
here.  A change meant to move them updates EXPECTED and says why in
CHANGES.md.

Run as a script (`PYTHONPATH=src python3 tests/test_replay.py`) it prints
the digests.
"""

import hashlib
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
    "tau": "a4f942d0c43d6cd79778eed3c5983d4aa91543f18a916706bb082c3021553afa",
    "tau_t": "fea863843bb6e6914cbb9bdeda266d069283368194eb96cf6c49561b01253fd4",
    "tau_strong": "bec6ddbe58abb50bec5f4eae302f26fa5c3ea302c2a3910c155f6ee31cc7a291",
    "gamma": "b24a4f282c88c6a34891f6afb68d3c2dbda17bd5c9db44911e717f5fe7cea594",
    "gamma_t": "626f1d8e7b27906fbc701fa7b8c7f368bdd83b120131e8eb7b9bd140ce798a3a",
    "ec_t": "522c2d713de07a9a007b4b605895f76ab8ae595a838229501916546ff64f12c4",
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
    try:
        res = fn(obj)
    except InfeasibleError as exc:
        return ("infeasible", str(exc))
    return (res.value, res.witness, res.nodes)


def replay_digests() -> dict:
    hashes = {inv: hashlib.sha256() for inv in EXPECTED if inv != "calls"}
    calls = 0
    for idx, H in enumerate(_population()):
        for image, X in _images(H):
            runs = [(inv, fn, X) for inv, fn in _HYPERGRAPH_SOLVERS.items()]
            runs.append(("ec_t", ec_t, two_section(X)))
            for inv, fn, obj in runs:
                calls += 1
                hashes[inv].update(repr((idx, image, _outcome(fn, obj))).encode())
    return {"calls": calls, **{inv: h.hexdigest() for inv, h in hashes.items()}}


def test_min_selection_replay():
    assert replay_digests() == EXPECTED


if __name__ == "__main__":
    for key, value in replay_digests().items():
        print(f"    {key!r}: {value!r},")
