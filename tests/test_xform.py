import math
import random

import pytest

from hypertrans.construct import _covering_adjacent_pair
from hypertrans.hcore import class_check, hypergraph, neighborhood_masks
from hypertrans.solve import InfeasibleError, ec_t, gamma_t, tau, tau_t
from hypertrans.xform import (
    FamilyInstance,
    Graph,
    dual,
    family_Fk,
    family_Fk_star,
    graph,
    graph_from_text,
    onh,
    shrink_degree_one,
    two_section,
)
from hypertrans.xsearch import random_hypergraph
from shapes import cubic_graph, disjoint_union


def _rand_covered_hg(rng, n_max=8):
    # every vertex in some edge, so neighborhood systems are defined
    while True:
        n = rng.randint(2, n_max)
        edges = [rng.sample(range(n), rng.randint(2, min(4, n))) for _ in range(6)]
        H = hypergraph(n, edges)
        if all(d > 0 for d in H.degrees()):
            return H


def test_graph_basics():
    G = graph(4, [(3, 1), (0, 2)])
    assert G.edges == ((0, 2), (1, 3))
    assert G.degrees() == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        graph(2, [(0, 2)])


def test_graph_text_roundtrip():
    G = graph(4, [(0, 1), (2, 3)])
    assert G.to_text() == "g 4 2\ne 0 1\ne 2 3\n"
    assert graph_from_text(G.to_text()) == G
    with pytest.raises(ValueError):
        graph_from_text("hg 3 1\ne 0 1\n")


def test_onh_single_edge():
    H = hypergraph(3, [[0, 1, 2]])
    N = onh(H)
    assert N.edges == ((0, 1), (0, 2), (1, 2))
    assert not N.had_multi_edge


def test_onh_c4_collapses():
    c4 = hypergraph(4, [[i, (i + 1) % 4] for i in range(4)])
    N = onh(c4)
    assert N.edges == ((0, 2), (1, 3))
    assert N.had_multi_edge
    assert tau(N).value == 2 == gamma_t(c4).value


def test_onh_keeps_singleton_neighborhoods():
    N = onh(hypergraph(3, [[0, 1], [1, 2]]))
    assert N.edges == ((0, 2), (1,))    # leaves both see only the center
    with pytest.raises(ValueError, match="isolated"):
        onh(hypergraph(3, [[0, 1]]))
    with pytest.raises(ValueError, match="empty edge"):
        onh(N)      # the center lies only in the singleton (1,)


def test_two_section():
    assert two_section(hypergraph(3, [[0, 1, 2]])).edges == (
        (0, 1),
        (0, 2),
        (1, 2),
    )
    G = two_section(hypergraph(5, [[0, 1, 2], [2, 3, 4]]))
    assert G.edges == ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))


def test_total_domination_transfers():
    # gamma_t survives both the neighborhood-system and 2-section views
    rng = random.Random(808)
    for _ in range(25):
        H = _rand_covered_hg(rng)
        want = gamma_t(H).value
        assert tau(onh(H)).value == want
        assert gamma_t(two_section(H).to_hypergraph()).value == want


def _draws(rng):
    """Seeded hypergraphs for the constructor checks: k = 2..6 in class and
    not (mixed sizes, isolated vertices, duplicate edges), disjoint unions
    and the C4, whose neighborhoods collapse."""
    yield hypergraph(4, [[i, (i + 1) % 4] for i in range(4)])
    for i in range(480):
        k = 2 + i % 5
        n = rng.randint(k + 1, 11)
        if i % 3 == 0:
            m = rng.randint(2, min(5, math.comb(n, k)))
            H = random_hypergraph(k, n, m, rng.getrandbits(64),
                                  require_class=True)
        else:
            edges = [rng.sample(range(n), rng.randint(2, k))
                     for _ in range(rng.randint(1, 6))]
            H = hypergraph(n, edges + edges[:i % 2])
        yield disjoint_union(H, H) if i % 7 == 0 else H


def _graphs(rng):
    """Seeded graphs from graph() and from dual() of the star systems of
    cubic graphs (each star system is 2-regular and linear)."""
    for i in range(40):
        n = rng.randint(2, 10)
        pairs = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 12))}
        G = graph(n, {(min(p), max(p)) for p in pairs})
        yield G
        C = cubic_graph(rng, 4 + 2 * (i % 4))
        stars = [[j for j, e in enumerate(C.edges) if u in e] for u in range(C.n)]
        yield dual(hypergraph(C.m, stars))


def test_constructors_match_definitions():
    """two_section, onh and Graph.to_hypergraph build their results without
    the validated constructors; each must equal the validated result of its
    definition, and the reduction's covering pair must be the first
    covering edge of the 2-section in lex order, also where its degree
    pre-test skips an x below the pair."""
    rng = random.Random(2210)
    skipped = 0
    for H in _draws(rng):
        pairs = sorted({(u, v) for e in H.edges for u in e for v in e if u < v})
        G = two_section(H)
        assert G == graph(H.n, pairs)
        assert G.to_hypergraph() == hypergraph(G.n, G.edges)
        if all(H.degrees()):
            nbhd = [[u for e in H.edges if v in e for u in e if u != v]
                    for v in range(H.n)]
            assert onh(H) == hypergraph(H.n, nbhd, allow_singletons=True)
        first = next((p for p in pairs
                      if all(p[0] in e or p[1] in e for e in H.edges)), None)
        degs = dict(enumerate(H.degrees()))
        assert _covering_adjacent_pair(H.edge_masks(), neighborhood_masks(H),
                                       degs) == first
        top = max(degs.values(), default=0)
        skipped += first is not None and any(
            degs[x] + top <= H.m for x in range(first[0]))
    assert skipped
    for G in _graphs(rng):
        assert G.to_hypergraph() == hypergraph(G.n, G.edges)


def test_dual_of_incidence_stars_is_k4():
    H = hypergraph(6, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]])
    G = dual(H)
    assert G.n == 4
    assert G.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert G.edge_labels == (0, 1, 2, 3, 4, 5)
    assert tau_t(H).value == ec_t(G).value == 3


def test_dual_of_cycle_is_cycle():
    c5 = hypergraph(5, [[i, (i + 1) % 5] for i in range(5)])
    G = dual(c5)
    assert G.n == 5 and G.m == 5
    assert all(d == 2 for d in G.degrees())
    # one cycle, not two: walk it
    seen = {0}
    prev, cur = None, 0
    nbr = [[] for _ in range(G.n)]
    for u, v in G.edges:
        nbr[u].append(v)
        nbr[v].append(u)
    for _ in range(4):
        nxt = [w for w in nbr[cur] if w != prev][0]
        prev, cur = cur, nxt
        seen.add(cur)
    assert len(seen) == 5


def test_dual_preconditions():
    with pytest.raises(ValueError, match="degree"):
        dual(hypergraph(4, [[0, 1, 2], [1, 2, 3]]))
    # 2-regular but two vertices share both incident edges
    H = hypergraph(4, [[0, 1, 2], [0, 1, 3], [2, 3]])
    with pytest.raises(ValueError, match="multigraph.*0 and 1"):
        dual(H)


def test_shrink_degree_one():
    H = hypergraph(5, [[0, 1, 2], [2, 3, 4]])
    S = shrink_degree_one(H)
    assert S.n == 3 == H.n - H.m
    assert S.edges == ((0, 1), (1, 2))
    assert S.labels == (1, 2, 4)        # dropped 0 from one edge, 3 from the other
    with pytest.raises(ValueError, match="degree-1"):
        shrink_degree_one(hypergraph(5, [[i, (i + 1) % 5] for i in range(5)]))


def test_shrink_uniformity_drop_random():
    rng = random.Random(909)
    for _ in range(30):
        base = rng.randint(2, 6)
        m = rng.randint(2, 6)
        k = rng.randint(2, min(4, base + 1))
        edges = []
        nxt = base
        for _ in range(m):
            e = rng.sample(range(base), k - 1) + [nxt]  # fresh vertex, degree 1
            nxt += 1
            edges.append(e)
        H = hypergraph(base + m, edges)
        if H.m < m:       # duplicate edges collapsed, skip
            continue
        S = shrink_degree_one(H)
        assert S.n == H.n - H.m
        assert all(len(e) == k - 1 for e in S.edges)
        # every shrunk edge is an original edge minus one degree-1 vertex
        degs = H.degrees()
        back = {tuple(S.labels[v] for v in e) for e in S.edges}
        for be in back:
            src = [e for e in H.edges if set(be).issubset(e)]
            assert src and any(
                len(set(e) - set(be)) == 1
                and degs[(set(e) - set(be)).pop()] == 1
                for e in src
            )


def test_family_fk_shapes_and_values():
    p3 = hypergraph(3, [[0, 1], [1, 2]])
    inst = family_Fk(p3, 2)
    assert isinstance(inst, FamilyInstance)
    assert inst.kind == "Fk" and inst.base_n == 3 and inst.k == 2
    H = inst.hypergraph
    assert H.n == 9 and class_check(H).in_Hk
    assert gamma_t(H).value == 6

    F = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    inst3 = family_Fk(F, 3)
    H3 = inst3.hypergraph
    assert H3.n == 16 and inst3.base_n == 4
    assert class_check(H3).in_Hk
    assert gamma_t(H3).value == 8


def test_family_fk_star_shapes_and_values():
    F = hypergraph(5, [[0, 1, 2], [2, 3, 4]])
    inst = family_Fk_star(F, 3)
    H = inst.hypergraph
    assert inst.kind == "Fk_star" and inst.base_n == 5
    assert H.n == 25
    assert class_check(H).in_Hk_star
    assert gamma_t(H).value == 10


def test_family_preconditions():
    single = hypergraph(3, [[0, 1, 2]])         # isolated edge, not in H_k
    with pytest.raises(ValueError):
        family_Fk(single, 3)
    p3 = hypergraph(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="k="):
        family_Fk(p3, 3)
    with pytest.raises(ValueError, match="at least 3"):
        family_Fk_star(p3, 2)
    overlap = hypergraph(4, [[0, 1, 2], [1, 2, 3]])   # shares k-1 vertices
    with pytest.raises(ValueError):
        family_Fk_star(overlap, 3)


def test_family_edge_layout():
    # new vertices appear after the base block, two edges per base vertex
    F = hypergraph(5, [[0, 1, 2], [2, 3, 4]])
    H = family_Fk(F, 3).hypergraph
    assert H.n == 20
    assert (0, 5, 6) in H.edges and (5, 6, 7) in H.edges
    assert (4, 17, 18) in H.edges and (17, 18, 19) in H.edges
    S = family_Fk_star(F, 3).hypergraph
    assert (0, 5, 6) in S.edges and (6, 7, 8) in S.edges


def test_infeasible_inputs_flow_through():
    # K2's dual demand: a single shared edge pair cannot exist (degree 1)
    with pytest.raises(ValueError):
        dual(hypergraph(2, [[0, 1]]))
    with pytest.raises(InfeasibleError):
        ec_t(graph(2, [(0, 1)]))
