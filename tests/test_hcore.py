import itertools
import random

import pytest

from hypertrans.hcore import (
    FormatError,
    class_check,
    class_floor_check,
    components,
    degree_profile,
    delete_vertices,
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
