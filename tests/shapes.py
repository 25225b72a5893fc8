"""Seeded instance shapes shared by the solver tests: disjoint unions,
pairing-model cubic graphs, pendant hypergraphs and bases of the family
expansions.  rng is a random.Random; cubic_graph draws through randrange
alone, so a hypertrans SplitMix64 drives it too."""

from hypertrans.hcore import class_check, hypergraph
from hypertrans.xform import graph
from hypertrans.xsearch import random_hypergraph


def disjoint_union(*parts):
    """The disjoint union, each part's vertices after the previous ones."""
    n, edges = 0, []
    for H in parts:
        edges += [[v + n for v in e] for e in H.edges]
        n += H.n
    return hypergraph(n, edges)


def cubic_graph(rng, n):
    """Random 3-regular graph by the pairing model with rejection.  The
    shuffle is spelled out, as random.shuffle does it, so that a SplitMix64
    draws the same graphs as perfbench does."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        for i in range(len(points) - 1, 0, -1):
            j = rng.randrange(i + 1)
            points[i], points[j] = points[j], points[i]
        pairs = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return graph(n, sorted(pairs))


def pendant_hypergraph(rng, k, core, m):
    """k-uniform: m edges on a few shared core vertices, each filled up with
    fresh vertices of degree 1."""
    edges, n = [], core
    for _ in range(m):
        fresh = rng.randint(0, k - 1)
        edges.append(rng.sample(range(core), k - fresh)
                     + list(range(n, n + fresh)))
        n += fresh
    return hypergraph(n, edges)


def family_base(rng, k, n, star):
    """An in-class k-uniform base of n vertices and two edges for the family
    expansions, in H_k^* as well when star is set."""
    while True:
        F = random_hypergraph(k, n, 2, rng.getrandbits(64), require_class=True)
        cc = class_check(F)
        if cc.k == k and (cc.in_Hk_star or not star):
            return F
