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

A second, structured population gets three digests of its own per invariant
(STRUCTURED): disjoint unions of two or three small instances, the family
expansions F_k and F_k*, cubic graphs, pendant hypergraphs, paths and
cycles, drawn with the helpers of shapes.py, each through the five
hypergraph invariants and ec_t on its 2-section.  The random draws never reach gamma_t's rank-2 cuts (their
gamma_t node digest reads the same without them); this population does,
and its unions fall apart into parts that share no item.

Run as a script (`PYTHONPATH=src python3 tests/test_replay.py`) it prints
the digests.
"""

import functools
import hashlib
import json
import math
import random

from hypertrans.construct import SplitMix64, split_seed
from hypertrans.hcore import hypergraph
from hypertrans.solve import (
    InfeasibleError, ec_t, gamma, gamma_t, tau, tau_strong, tau_t,
)
from hypertrans.xform import family_Fk, family_Fk_star, onh, two_section
from hypertrans.xsearch import random_hypergraph

from shapes import (
    cubic_graph, disjoint_union, family_base, pendant_hypergraph,
)

INSTANCES = 240
UNIONS = 60
FAMILIES = 8
PENDANTS = 45

EXPECTED = {
    "calls": 4110,
    "tau": "65ef4eaa576ea475e5f28f6c8e476fb8d307aabe4bdad5a1a9e2855f570204c1",
    "tau_t": "07605f99fd84225054e9a0a0529754d82ff0b6a7b7051f556fe57f7647671a67",
    "tau_strong": "5fec2696b88062de35f8352042ec96cb77c0f968e394a1a08451c7c559634ff9",
    "gamma": "d987b1ad75dda09daae2f211ef2e44e802e7ec0150094ea03ba514805c089a40",
    "gamma_t": "12c7a25b7b482d53de0900eb36c550688359dcbca1b2b5b9f1e5f7d68e956e98",
    "ec_t": "b7e4a935b1625966c40b9118c28a896d938f5f73cde9fce1ee36555e28dbf0a1",
    "tau.values": "2cadaf409b9908b3110d4aa864bec24a59e679df95e476a2310abf264ca3e513",
    "tau_t.values": "1266d92c8fc20fc3f1c45ddf511ec37aca070ef9ed753404771243a442e27eaf",
    "tau_strong.values": "24c706c1a30cc1a3dce7394256d7996661ead78a7c44016f1a524ef773077e49",
    "gamma.values": "55d4245322c307e815526d1aef4984fdb5a97459f223caec5b8bbce8542bb01d",
    "gamma_t.values": "0a6476ff19bc2c3f80aea34bf305b77b9b54aee89529cf8fdb6259dd9dfbb89e",
    "ec_t.values": "f37949f705968102cd01fb40a176ae3b96ae14df2562a0b67d6bdfec1da1ca05",
    "tau.nodes": "cb9b23cce61a72afe5c4fab3a985e2f8b5069992e57ad809eaf52624a19c2106",
    "tau_t.nodes": "ecde4c315dfcf71c5edeb11c5ffadd205364175dec6a2be2434e34722dfb99fe",
    "tau_strong.nodes": "7a860e1baf4ce045b7663b674278461f97546c2791ab478d26a336f269ff1345",
    "gamma.nodes": "065e35a118e450875aa3b698c02080b1e4acc1eaea48bfceac6b0298f94f0dd4",
    "gamma_t.nodes": "965c0f187ec90c35e9b65325376b0385f0231d2dc434d99510af1a2e68dabd50",
    "ec_t.nodes": "f7f2ed2901025f0fe08ac19cae36d8bee33d788d8a5795e6cee25859c1af69af",
}

STRUCTURED = {
    "calls": 990,
    "tau": "942f915ee93325596c02065819bf0bafde67a2c6a1070572573504042f2c8393",
    "tau_t": "f35c91a1be0171cd84b29a04a934c314e8b8910c4aafcec7d44193721a4273cf",
    "tau_strong": "b3e5352921be21dbab63ebccfa86aa1e595d61f48bfb6e55e8f88b2f0df4e4a5",
    "gamma": "533a497953bac44e39ff8f204b7a292e399969215d7fbd83abb25b7fa11e4467",
    "gamma_t": "393e418ed092976d868f6a3ddf41f98c167f06915a10f96faa7ff024fd07dc39",
    "ec_t": "8a0e9f140d71fce13ab0e3d4db17d3a4e466e12ce3ade6de00b14b0cac0050c3",
    "tau.values": "e74043cd08e37094d5a33fa9dee7576adb0e586d25ebab558b6775d334973fa1",
    "tau_t.values": "1d1ebe582b8592c1166ac95d707c2cc5ab595aa952fd87d16402dc329521daf8",
    "tau_strong.values": "36a26da4d4e5a834167adc342ce61aa6139c2db19bf02e898ceb3ac4f9b0323b",
    "gamma.values": "428f6534b4deff84a20f573ed388df1f5556bf58ccfc1a62887ff4b9e403e227",
    "gamma_t.values": "acbf721e4a14380601b4b6194f055368a83394708c15071ba0e32881b3190147",
    "ec_t.values": "0d673c5ac0a6e5e2ae0a453cb1400965219cde640076a2254c99343478b65233",
    "tau.nodes": "274900768c630c2bdb793bc3c99790fca3e3bbd114d3e5d1d927843b3e855639",
    "tau_t.nodes": "62cbb7a308f0d82d0beb4172f76730f54ed1e0a81994508f951710b324f7fb20",
    "tau_strong.nodes": "ba061f823a59a0d968298b4469dce19c5864085970cd5ffdc7b193f68781c222",
    "gamma.nodes": "57f8a2a728541ebd8922aad27b818af305c679b07000ebe48d01d88a205132f8",
    "gamma_t.nodes": "b199ae14358ca38ffdfb92607111c20019aac83fea3527425653691f53e1a233",
    "ec_t.nodes": "91c01845ac6521b2914f9ae42b622391cb896247a1687c7f5e8ba84e44ab2c01",
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


def _digests(population, expected) -> dict:
    """The digests of expected's keys over (tag, hypergraph) pairs, each
    through the five hypergraph invariants and ec_t on its 2-section."""
    hashes = {key: hashlib.sha256() for key in expected if key != "calls"}
    calls = 0
    for tag, X in population:
        runs = [(inv, fn, X) for inv, fn in _HYPERGRAPH_SOLVERS.items()]
        runs.append(("ec_t", ec_t, two_section(X)))
        for inv, fn, obj in runs:
            calls += 1
            result, nodes = _outcome(fn, obj)
            hashes[inv].update(repr((*tag, result)).encode())
            value = result if nodes is None else result[0]
            hashes[f"{inv}.values"].update(repr((*tag, value)).encode())
            hashes[f"{inv}.nodes"].update(repr((*tag, nodes)).encode())
    return {"calls": calls, **{key: h.hexdigest() for key, h in hashes.items()}}


@functools.cache
def replay_digests() -> dict:
    return _digests((((idx, image), X) for idx, H in enumerate(_population())
                     for image, X in _images(H)), EXPECTED)


def _structured():
    """(tag, hypergraph) pairs of the structured population."""
    rng = random.Random(split_seed(2026, 10))
    out = []
    for i in range(UNIONS):
        parts = []
        for _ in range(2 + i % 2):
            k = 2 + rng.randrange(2)
            n = k + 1 + rng.randrange(4)
            m = 2 + rng.randrange(min(3, math.comb(n, k) - 1))
            parts.append(random_hypergraph(k, n, m, rng.getrandbits(64),
                                           require_class=True))
        out.append((("union", i), disjoint_union(*parts)))
    # ec_t on the 2-section of a 4-uniform expansion takes millions of nodes;
    # a 3-uniform base in H_3^* has at least 5 vertices
    for i in range(FAMILIES):
        k = 2 + i % 2
        base = family_base(rng, k, k + 1 + rng.randrange(3), False)
        out.append((("Fk", i), family_Fk(base, k).hypergraph))
    for i in range(FAMILIES):
        base = family_base(rng, 3, 5 + rng.randrange(2), True)
        out.append((("Fk*", i), family_Fk_star(base, 3).hypergraph))
    for n in (4, 6, 6, 8, 8, 10, 10, 12):
        out.append((("cubic", n), cubic_graph(rng, n).to_hypergraph()))
    for n in (4, 6, 8, 10):
        C = cubic_graph(rng, n).to_hypergraph()
        out.append((("cubic x2", n), disjoint_union(C, C)))
    for i in range(PENDANTS):
        k = (2, 3, 4)[i % 3]
        parts = [pendant_hypergraph(rng, k, k + rng.randrange(4),
                                    2 + rng.randrange(4))
                 for _ in range(1 + i % 3)]
        out.append((("pendant", i), disjoint_union(*parts)))
    for n in range(2, 13):
        path = hypergraph(n, [[v, v + 1] for v in range(n - 1)])
        out.append((("path", n), path))
        if n >= 3:
            out.append((("cycle", n),
                        hypergraph(n, [[v, (v + 1) % n] for v in range(n)])))
            out.append((("path+cycle", n), disjoint_union(path, out[-1][1])))
    F = family_Fk(family_base(rng, 2, 3 + rng.randrange(3), False),
                  2).hypergraph
    out.append((("Fk x2", 2), disjoint_union(F, F)))
    return out


@functools.cache
def structured_digests() -> dict:
    return _digests(_structured(), STRUCTURED)


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


def test_structured_replay():
    """Values, witnesses and infeasibility messages."""
    assert _part(structured_digests(), "") == _part(STRUCTURED, "")


def test_structured_replay_values():
    assert _part(structured_digests(), "values") == _part(STRUCTURED, "values")


def test_structured_replay_nodes():
    assert _part(structured_digests(), "nodes") == _part(STRUCTURED, "nodes")


if __name__ == "__main__":
    for name, digests in (("EXPECTED", replay_digests()),
                          ("STRUCTURED", structured_digests())):
        print(f"{name} = {{")
        for key, value in digests.items():
            print(f"    {json.dumps(key)}: {json.dumps(value)},")
        print("}")
