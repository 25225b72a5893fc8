import itertools
import random

import pytest

from hypertrans.hcore import (
    MAX_HEADER_COUNT,
    FormatError,
    _max_shared,
    class_check,
    class_floor_check,
    components,
    degree_profile,
    delete_vertices,
    edge_components,
    from_text,
    hypergraph,
    induced,
    neighborhood,
    neighborhood_masks,
)


def _rand_hg(rng, n_max=9):
    n = rng.randint(2, n_max)
    m = rng.randint(1, 8)
    edges = []
    for _ in range(m):
        size = rng.randint(2, min(4, n))
        edges.append(rng.sample(range(n), size))
    return hypergraph(n, edges)


def test_canonical_storage():
    H = hypergraph(4, [[3, 1], [0, 2], [1, 3]])
    assert H.edges == ((0, 2), (1, 3))
    assert H.had_multi_edge
    assert H.m == 2
    H2 = hypergraph(4, [[2, 0], [3, 1]])
    assert not H2.had_multi_edge
    assert H.edges == H2.edges


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        hypergraph(3, [[0, 3]])
    with pytest.raises(ValueError):
        hypergraph(3, [[1]])
    with pytest.raises(ValueError):
        hypergraph(3, [[1, 1]])     # collapses to a singleton
    with pytest.raises(ValueError):
        hypergraph(-1, [])
    # singleton allowed only when explicitly requested
    H = hypergraph(3, [[1], [0, 2]], allow_singletons=True)
    assert H.edges == ((0, 2), (1,))


def test_degree_profile():
    H = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    dp = degree_profile(H)
    assert dp.degrees == (1, 2, 2, 1)
    assert dp.n1 == 2
    assert dp.delta == 1 and dp.Delta == 2


def test_class_check_basic():
    H = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    cc = class_check(H)
    assert cc.k == 3 and cc.is_k_uniform
    assert cc.in_Hk
    assert not cc.in_Hk_star          # the two edges share k-1 = 2 vertices
    assert not cc.is_linear
    H2 = hypergraph(5, [[0, 1, 2], [2, 3, 4]])
    cc2 = class_check(H2)
    assert cc2.in_Hk and cc2.in_Hk_star and cc2.is_linear


def test_class_check_exclusions():
    # isolated vertex
    assert not class_check(hypergraph(4, [[0, 1, 2]])).in_Hk
    # isolated edge
    assert class_check(hypergraph(3, [[0, 1, 2]])).has_isolated_edge
    # mixed sizes
    cc = class_check(hypergraph(4, [[0, 1], [1, 2, 3]]))
    assert not cc.is_k_uniform and cc.k == 0 and not cc.in_Hk
    # collapsed multi-edge
    assert not class_check(hypergraph(4, [[0, 1, 2], [2, 1, 0], [1, 2, 3]])).in_Hk
    # k = 2 never qualifies for the starred class
    c5 = hypergraph(5, [[i, (i + 1) % 5] for i in range(5)])
    cc5 = class_check(c5)
    assert cc5.in_Hk and not cc5.in_Hk_star
    assert cc5.is_r_regular(2)


def test_class_check_pairwise_definition():
    # the pair flags against a direct reading of their definitions
    rng = random.Random(118)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = [rng.sample(range(n), rng.randint(1, min(4, n)))
                 for _ in range(rng.randint(0, 6))]
        H = hypergraph(n, edges, allow_singletons=True)
        sets = [set(e) for e in H.edges]
        shared = [len(a & b) for a, b in itertools.combinations(sets, 2)]
        cc = class_check(H)
        assert cc.has_isolated_edge == any(
            not any(a & b for j, b in enumerate(sets) if j != i)
            for i, a in enumerate(sets)
        )
        assert cc.is_linear == all(s <= 1 for s in shared)
        if cc.in_Hk:
            assert cc.in_Hk_star == (cc.k >= 3 and max(shared) <= cc.k - 2)


def _loose_cycle_plus(rng, k, m, extra):
    """m k-edges around a cycle, each sharing one vertex with the next, plus
    extra edges that each take 1..k-1 vertices of a cycle edge and the rest
    anywhere."""
    n = m * (k - 1)
    edges = [[(i * (k - 1) + j) % n for j in range(k)] for i in range(m)]
    for _ in range(extra):
        base = rng.choice(edges[:m])
        keep = rng.sample(base, rng.randint(1, k - 1))
        rest = [v for v in range(n) if v not in base]
        edges.append(keep + rng.sample(rest, k - len(keep)))
    perm = rng.sample(range(n), n)
    return hypergraph(n, [[perm[v] for v in e] for e in edges])


def _lowest_vertex_pairs(k, count):
    """count disjoint pairs of k-edges, the two of a pair meeting only at
    their lowest vertex."""
    edges = []
    for c in range(0, count * (2 * k - 1), 2 * k - 1):
        edges += [[c, *range(c + 1, c + k)], [c, *range(c + k, c + 2 * k - 1)]]
    return hypergraph(count * (2 * k - 1), edges)


def test_max_shared_matches_pairwise_rule():
    # sparse instances (disjoint pairs of edges, relabelled loose cycles),
    # which compare only the edges at each vertex, and dense draws on few
    # vertices, which compare every pair
    rng = random.Random(2024)
    seen = set()
    for k in (2, 3, 4, 5, 7, 10, 20, 35, 50):
        for trial in range(7):
            if trial == 0:
                H = _lowest_vertex_pairs(k, 8)
            elif trial < 5:
                H = _loose_cycle_plus(rng, k, rng.randint(2 * k + 4, 2 * k + 40),
                                      rng.choice((0, 0, 1, 3)))
            else:
                n = k + rng.randint(1, k + 2)
                H = hypergraph(n, [rng.sample(range(n), k)
                                   for _ in range(rng.randint(2, 40))])
            sets = [set(e) for e in H.edges]
            want = max((len(a & b) for a, b in itertools.combinations(sets, 2)),
                       default=0)
            degrees = H.degrees()
            assert _max_shared(H, H.edge_masks(), degrees) == want
            cc = class_check(H)
            assert cc.is_linear == (want <= 1)
            assert cc.in_Hk_star == (cc.in_Hk and k >= 3 and want <= k - 2)
            sparse = sum(d * (d + 1) for d in degrees) < H.m * (H.m - 1)
            seen.add(("sparse" if sparse else "dense",
                      "linear" if cc.is_linear else "non-linear"))
            seen.add("H_k*" if cc.in_Hk_star else "H_k" if cc.in_Hk else "out")
    assert seen >= {("sparse", "linear"), ("sparse", "non-linear"),
                    ("dense", "non-linear"), "H_k*", "H_k", "out"}
    # on the per-vertex path, with vertex 0's list the only one holding a
    # pair
    H = hypergraph(20, [[0, 1], [0, 2]]
                   + [[v, v + 1] for v in range(3, 19, 2)])
    assert sum(d * (d + 1) for d in H.degrees()) < H.m * (H.m - 1)
    assert _max_shared(H, H.edge_masks(), H.degrees()) == 1


def test_neighborhood():
    H = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    assert neighborhood(H, 0) == {1, 2}
    assert neighborhood(H, 1) == {0, 2, 3}
    with pytest.raises(IndexError):
        neighborhood(H, 4)


def test_neighborhood_masks_match_sets():
    rng = random.Random(401)
    for _ in range(60):
        H = _rand_hg(rng)
        masks = neighborhood_masks(H)
        for v in range(H.n):
            want = 0
            for u in neighborhood(H, v):
                want |= 1 << u
            assert masks[v] == want


def test_components():
    H = hypergraph(7, [[0, 1, 2], [2, 3, 4], [5, 6]])
    assert components(H) == [[0, 1, 2, 3, 4], [5, 6]]
    # vertex 3 isolated
    H2 = hypergraph(4, [[0, 1], [1, 2]])
    assert components(H2) == [[0, 1, 2], [3]]


def _components_by_list(H):
    """components as first written: a union-find over a list of all n
    vertices, then every vertex's block."""
    parent = list(range(H.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in H.edges:
        r = find(e[0])
        for v in e[1:]:
            s = find(v)
            if s != r:
                parent[s] = r
    blocks = {}
    for v in range(H.n):
        blocks.setdefault(find(v), []).append(v)
    return sorted(blocks.values())


def test_components_match_list_union_find():
    """components and edge_components keep only the vertices the edges
    touch; on seeded draws with isolated vertices the blocks must match a
    union-find over every vertex, and each piece must hold its block's
    edges in the input's order, the pieces in the order of their first
    edges."""
    rng = random.Random(233)
    isolated = 0
    for _ in range(300):
        H = _rand_hg(rng, 14)
        H = hypergraph(H.n + rng.randint(0, 3), H.edges)
        blocks = components(H)
        assert blocks == _components_by_list(H)
        isolated += any(len(b) == 1 for b in blocks)
        pieces = edge_components(H.edges)
        assert sorted(e for p in pieces for e in p) == sorted(H.edges)
        assert all(list(p) == [e for e in H.edges if e in p] for p in pieces)
        assert [p[0] for p in pieces] == sorted(p[0] for p in pieces)
        assert sorted(sorted({v for e in p for v in e}) for p in pieces) == [
            b for b in blocks if len(b) > 1]
    assert isolated >= 100


def test_delete_vertices():
    H = hypergraph(5, [[0, 1, 2], [2, 3, 4], [0, 3, 4]])
    R = delete_vertices(H, {0})
    # only {2,3,4} survives; vertex 1 loses all edges and is dropped
    assert R.n == 3
    assert R.edges == ((0, 1, 2),)
    assert R.labels == (2, 3, 4)
    # label chaining through a second deletion
    R2 = delete_vertices(R, {0})
    assert R2.n == 0 and R2.edges == ()
    with pytest.raises(ValueError):
        delete_vertices(H, {9})


def test_delete_vertices_keeps_untouched_edges():
    rng = random.Random(402)
    for _ in range(60):
        H = _rand_hg(rng)
        xs = set(rng.sample(range(H.n), rng.randint(0, H.n // 2)))
        R = delete_vertices(H, xs)
        back = {tuple(R.labels[v] for v in e) for e in R.edges}
        want = {e for e in H.edges if not xs.intersection(e)}
        assert back == want


def test_induced():
    H = hypergraph(5, [[0, 1, 2], [2, 3, 4]])
    sub, back = induced(H, [2, 3, 4])
    assert back == [2, 3, 4]
    assert sub.n == 3 and sub.edges == ((0, 1, 2),)


def test_class_floor_rows():
    H = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    rows = class_floor_check(H)
    names = [r.theorem for r in rows]
    assert names == ["O2_n", "O2_m", "O2_maxdeg", "O2_n1"]
    assert all(r.holds for r in rows)
    # n = k+1, m = 2, n1 = 2: every row is tight here
    assert all(r.slack == 0 for r in rows)
    with pytest.raises(ValueError):
        class_floor_check(hypergraph(3, [[0, 1, 2]]))


def test_text_roundtrip():
    H = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    text = H.to_text()
    assert text == "hg 4 2\ne 0 1 2\ne 1 2 3\n"
    assert from_text(text) == H
    # comments and blank lines tolerated
    assert from_text("# cycle\nhg 3 2\n\ne 0 1  # first\ne 1 2\n").edges == (
        (0, 1),
        (1, 2),
    )


def test_text_roundtrip_random():
    # the text carries structure only, not the multi-edge history flag
    rng = random.Random(403)
    for _ in range(80):
        H = _rand_hg(rng)
        P = from_text(H.to_text())
        assert (P.n, P.edges) == (H.n, H.edges)
        assert P.to_text() == H.to_text()


def test_parse_errors():
    for bad in [
        "",
        "graph 3 1\ne 0 1\n",
        "hg 3 2\ne 0 1\n",
        "hg 3 1\nv 0 1\n",
        "hg 3 1\ne 0 x\n",
        "hg 3 1\ne 1\n",
        "hg x 1\ne 0 1\n",
    ]:
        with pytest.raises(FormatError):
            from_text(bad)
    # header counts are bounded before anything is built from them
    with pytest.raises(FormatError, match="limit"):
        from_text(f"hg {MAX_HEADER_COUNT + 1} 0\n")
