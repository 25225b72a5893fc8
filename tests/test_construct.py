import itertools
import math
import random
from fractions import Fraction

import pytest

from hypertrans import construct
from hypertrans.construct import (
    _GOLDEN,
    _M64,
    ConstructionResult,
    SplitMix64,
    _draw_threshold,
    _repair_isolated,
    _strong_kernel,
    _strong_params,
    _trial_rows,
    p3_packing,
    randomized_strong_transversal,
    split_seed,
    strong_transversal_trials,
    total_edge_cover_forest,
    tt_2uniform,
    tt_kuniform,
)
from hypertrans.hcore import (
    Hypergraph, bit_indices, class_check, components, hypergraph,
)
from hypertrans.solve import (
    is_strong_transversal,
    is_total_edge_cover,
    is_total_transversal,
    tau_t,
)
from hypertrans.xform import graph
from hypertrans.xsearch import random_hypergraph


def _rand_connected_graph_hg(rng, n):
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        edges.add((min(u, order[i]), max(u, order[i])))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return hypergraph(n, sorted(edges))


def _rand_hk(rng, k, n, m):
    import itertools
    pool = list(itertools.combinations(range(n), k))
    for _ in range(400):
        edges = rng.sample(pool, m)
        covered = sorted({v for e in edges for v in e})
        idx = {v: i for i, v in enumerate(covered)}
        H = hypergraph(len(covered), [[idx[v] for v in e] for e in edges])
        if class_check(H).in_Hk:
            return H
    raise AssertionError("no in-class sample found")


def _petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((i + 5, ((i + 2) % 5) + 5))
    return graph(10, sorted(set(tuple(sorted(e)) for e in edges)))


def _repair_pairwise(H, X):
    """_repair_isolated as first written: each kept edge tested against
    every other kept edge."""
    degs = H.degrees()
    keep = [e for e in H.edges if not X.intersection(e)]
    repaired = []
    doomed = set(X)
    for e in keep:
        if [f for f in keep if f != e and set(f) & set(e)]:
            continue
        repaired.append(next(v for v in e if degs[v] >= 2))
        doomed.update(e)
    return doomed, repaired


def test_repair_by_kept_degree_matches_pairwise_rule(monkeypatch):
    rng = SplitMix64(4242)
    instances = []
    for k in range(2, 6):
        for _ in range(40):
            n = k + 3 + rng.randrange(12)
            m = 2 + rng.randrange(n if k == 2 else 6)
            if m <= math.comb(n, k):
                instances.append(random_hypergraph(k, n, m, rng.next_u64(),
                                                   require_class=True))
    # the rule itself, on every instance and a few removed sets
    for H in instances:
        for _ in range(3):
            X = set(rng.sample(H.n, 1 + rng.randrange(3)))
            assert _repair_isolated(H, X) == _repair_pairwise(H, X)
    fast = [(tt_2uniform if len(H.edges[0]) == 2 else tt_kuniform)(H)
            for H in instances]
    monkeypatch.setattr(construct, "_repair_isolated", _repair_pairwise)
    slow = [(tt_2uniform if len(H.edges[0]) == 2 else tt_kuniform)(H)
            for H in instances]
    assert [(r.set, r.trace) for r in fast] == [(r.set, r.trace) for r in slow]
    # repairs did fire, for graphs and for k >= 3
    repairs = {len(H.edges[0]) >= 3 for H, r in zip(instances, fast)
               if any(rep for _, _, rep in r.trace)}
    assert repairs == {False, True}


def test_tt2_path_and_cycle():
    p3 = hypergraph(3, [[0, 1], [1, 2]])
    r = tt_2uniform(p3)
    assert r.set == (0, 1) and r.size == 2
    assert r.guarantee == Fraction(2 * 5, 5)
    c5 = hypergraph(5, [[i, (i + 1) % 5] for i in range(5)])
    r5 = tt_2uniform(c5)
    assert r5.size == 4 and r5.guarantee == Fraction(4)
    assert is_total_transversal(c5, r5.set)


def test_tt2_preconditions():
    with pytest.raises(ValueError):
        tt_2uniform(hypergraph(3, [[0, 1, 2]]))
    # isolated-edge component
    with pytest.raises(ValueError):
        tt_2uniform(hypergraph(5, [[0, 1], [1, 2], [3, 4]]))


def test_tt2_differential_random():
    rng = random.Random(5150)
    for _ in range(500):
        H = _rand_connected_graph_hg(rng, rng.randint(3, 14))
        r = tt_2uniform(H)
        assert is_total_transversal(H, r.set)
        assert r.size <= r.guarantee == Fraction(2 * (H.n + H.m), 5)
        assert tau_t(H).value <= r.size


def test_ttk_pair_rule():
    H = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    r = tt_kuniform(H)
    assert r.size == 2 == tau_t(H).value
    assert r.guarantee == Fraction(6, 3)
    assert r.trace[0][0] == "pair"


def test_ttk_terminal_cubic_dual():
    H = hypergraph(6, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]])
    r = tt_kuniform(H)
    assert is_total_transversal(H, r.set)
    assert r.size == 3 == tau_t(H).value
    assert r.size <= r.guarantee == Fraction(10, 3)
    assert r.trace[0][0] == "forest"


def test_ttk_preconditions():
    with pytest.raises(ValueError):
        tt_kuniform(hypergraph(3, [[0, 1], [1, 2]]))
    with pytest.raises(ValueError):
        tt_kuniform(hypergraph(4, [[0, 1, 2], [0, 1, 2, 3]]))


def test_ttk_differential_random():
    rng = random.Random(6174)
    for i in range(500):
        k = 3 if i % 2 else 4
        n = rng.randint(k + 2, 12)
        m = rng.randint(2, 7)
        H = _rand_hk(rng, k, n, m)
        r = tt_kuniform(H)
        assert is_total_transversal(H, r.set)
        assert r.size <= Fraction(H.n + H.m, 3)
        assert tau_t(H).value <= r.size


def test_p3_packing_small_graphs():
    k4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert len(p3_packing(k4, "exact")) == 1
    assert len(p3_packing(_petersen(), "exact")) == 3
    two_triangles = graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert len(p3_packing(two_triangles, "exact")) == 2
    with pytest.raises(ValueError, match="cap"):
        p3_packing(graph(17, [(i, i + 1) for i in range(16)]), "exact")
    with pytest.raises(ValueError, match="mode"):
        p3_packing(k4, "fast")


def test_p3_packing_properties_random():
    rng = random.Random(271828)
    for _ in range(60):
        H = _rand_connected_graph_hg(rng, rng.randint(3, 11))
        G = graph(H.n, H.edges)
        for mode in ("greedy", "exact"):
            paths = p3_packing(G, mode)
            used = [v for p in paths for v in p]
            assert len(used) == len(set(used))
            nbrs = G.neighbor_masks()
            for a, c, b in paths:
                assert nbrs[c] >> a & 1 and nbrs[c] >> b & 1
        assert len(p3_packing(G, "exact")) >= len(p3_packing(G, "greedy"))


def _max_p3_count(G) -> int:
    """The most vertex-disjoint 3-vertex paths in G, by trying every set of
    paths from the largest size down; a path is a center c and two
    distinct neighbors a < b of c."""
    adj = set(G.edges)
    paths = [
        (1 << a) | (1 << c) | (1 << b)
        for c in range(G.n)
        for a, b in itertools.combinations(range(G.n), 2)
        if c not in (a, b) and tuple(sorted((a, c))) in adj
        and tuple(sorted((c, b))) in adj
    ]
    for t in range(G.n // 3, 0, -1):
        for chosen in itertools.combinations(paths, t):
            union = 0
            for p in chosen:
                union |= p
            if union.bit_count() == 3 * t:
                return t
    return 0


def test_p3_packing_exact_is_maximum():
    """exact mode finds as many paths as a brute force over sets of paths,
    on seeded random graphs of every density, so empty and disconnected
    ones among them."""
    rng = random.Random(9)
    cases = [graph(0, []), graph(5, []),
             graph(9, [(0, 1), (1, 2), (3, 4), (6, 7), (7, 8), (6, 8)])]
    for _ in range(200):
        n = rng.randint(1, 9)
        p = rng.random()
        cases.append(graph(n, [(u, v) for u, v in
                               itertools.combinations(range(n), 2)
                               if rng.random() < p]))
    for G in cases:
        assert len(p3_packing(G, "exact")) == _max_p3_count(G), G


def _rand_connected_cubic(rng, n):
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[2 * i : 2 * i + 2])) for i in range(len(stubs) // 2)}
        if any(u == v for u, v in pairs) or len(pairs) != 3 * n // 2:
            continue
        G = graph(n, sorted(pairs))
        if len(components(G.to_hypergraph())) == 1:
            return G


def test_p3_quarter_on_cubic():
    # the packing floor n/4 holds on every cubic instance we can test exactly
    rng = random.Random(12)
    for n in (4, 6, 8, 10, 12):
        for _ in range(6):
            G = _rand_connected_cubic(rng, n)
            assert len(p3_packing(G, "exact")) >= -(-n // 4)


def test_total_edge_cover_forest():
    k4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    r = total_edge_cover_forest(k4)
    assert isinstance(r, ConstructionResult)
    assert r.size == 3 and r.guarantee == Fraction(3)
    assert is_total_edge_cover(k4, r.set)
    c6 = graph(6, [(i, (i + 1) % 6) for i in range(6)])
    r6 = total_edge_cover_forest(c6)
    assert r6.size == 4
    assert is_total_edge_cover(c6, r6.set)
    rp = total_edge_cover_forest(_petersen())
    assert rp.size == 7 <= rp.guarantee == Fraction(30, 4)
    assert is_total_edge_cover(_petersen(), rp.set)


def test_total_edge_cover_forest_preconditions():
    with pytest.raises(ValueError, match="connected"):
        total_edge_cover_forest(graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="3 vertices"):
        total_edge_cover_forest(graph(2, [(0, 1)]))


def test_split_rng():
    assert split_seed(42, 0) == split_seed(42, 0)
    assert split_seed(42, 0) != split_seed(42, 1)
    assert split_seed(42, 0) != split_seed(43, 0)
    rng = SplitMix64(7)
    seq = [rng.next_u64() for _ in range(4)]
    assert seq == [SplitMix64(7).next_u64() for _ in range(1)] + seq[1:]
    assert all(0.0 <= SplitMix64(i).random() < 1.0 for i in range(50))
    r = SplitMix64(99)
    assert sorted(r.sample(10, 10)) == list(range(10))
    assert all(0 <= r.randrange(7) < 7 for _ in range(100))
    with pytest.raises(ValueError):
        SplitMix64(1).sample(3, 4)


def test_randrange_beyond_64_bits_raises():
    """Above 2**64 the rejection limit 2**64 - 2**64 % n is 0, which once
    rejected every draw forever; such a range raises at once, drawing
    nothing, while 2**64 itself still returns the raw draw."""
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        rng.randrange(2**64 + 1)
    assert rng.state == 5
    raw = SplitMix64(5)
    assert [rng.randrange(2**64) for _ in range(3)] \
        == [raw.next_u64() for _ in range(3)]


class _SplitMix64Reference(SplitMix64):
    """randrange and sample as first written: every draw through next_u64,
    and sample shuffles a full list of 0..n-1."""

    def randrange(self, n):
        limit = 2**64 - (2**64 % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sample(self, n, k):
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def test_rng_methods_match_reference():
    draws = random.Random(64)
    bounds = [1, 2, 3, 7, 10_000, 2**32 + 1, 2**63 + 1, 2**64 - 1, 2**64]
    bounds += [draws.randrange(1, 2**64 + 1) for _ in range(40)]
    for idx, n in enumerate(bounds):
        want, got = (cls(split_seed(71, idx))
                     for cls in (_SplitMix64Reference, SplitMix64))
        assert [got.randrange(n) for _ in range(25)] \
            == [want.randrange(n) for _ in range(25)]
        assert got.state == want.state
    # 2**64 - 1 lies in the rejected top of both ranges: a second draw
    state = _state_before(2**64 - 1)
    for n in (3, 2**64 - 1):
        want, got = _SplitMix64Reference(state), SplitMix64(state)
        assert got.randrange(n) == want.randrange(n)
        assert got.state == want.state == (state + 2 * _GOLDEN) & _M64
    shapes = [(0, 0), (1, 0), (1, 1), (2, 2), (9, 9), (50, 17), (10_000, 0),
              (10_000, 1), (10_000, 12), (10_000, 10_000)]
    shapes += [(n, draws.randint(0, n))
               for n in (draws.randint(1, 300) for _ in range(60))]
    for idx, (n, k) in enumerate(shapes):
        want, got = (cls(split_seed(72, idx))
                     for cls in (_SplitMix64Reference, SplitMix64))
        assert got.sample(n, k) == want.sample(n, k)
        assert got.state == want.state
    for bad in (0, -5):
        with pytest.raises(ValueError):
            SplitMix64(1).randrange(bad)
    for n, k in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            SplitMix64(1).sample(n, k)


def test_strong_transversal_basic():
    rng = random.Random(5)
    for _ in range(25):
        H = _rand_hk(rng, 3, rng.randint(5, 10), rng.randint(2, 6))
        out = randomized_strong_transversal(H, 1.5, seed=rng.randrange(2**64))
        assert is_strong_transversal(H, out)
    H = _rand_hk(rng, 3, 9, 5)
    a = randomized_strong_transversal(H, 2.0, seed=11)
    b = randomized_strong_transversal(H, 2.0, seed=11)
    assert a == b


def test_strong_transversal_parameter_domain():
    c5 = hypergraph(5, [[i, (i + 1) % 5] for i in range(5)])
    with pytest.raises(ValueError, match="exceeds 1"):
        randomized_strong_transversal(c5, 10.0, seed=0)
    with pytest.raises(ValueError, match="exceed 1"):
        randomized_strong_transversal(c5, 1.0, seed=0)
    mixed = hypergraph(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError, match="one size"):
        randomized_strong_transversal(mixed, 2.0, seed=0)


def test_strong_trials_report():
    rng = random.Random(777)
    H = _rand_hk(rng, 3, 30, 20)
    rep = strong_transversal_trials(H, 2.0, trials=300, seed=909)
    assert rep.k == 3 and rep.trials == 300 and rep.all_valid
    assert rep.p == pytest.approx(math.log(6) / 2)
    want_bound = (
        math.log(6) / 2 * H.n + math.log(6) / 4 * H.m + 2 / 6 * H.m
    )
    assert rep.bound == pytest.approx(want_bound)
    assert rep.mean_size <= rep.bound
    assert abs(rep.mean_x1 - rep.expect_x1) <= 4 * rep.se_x1
    assert rep.mean_x2 <= rep.cap_x2 + 3 * rep.std_err
    assert rep.mean_x3 <= rep.cap_x3 + 3 * rep.std_err


def test_strong_trials_jobs_equivalence():
    rng = random.Random(31)
    H = _rand_hk(rng, 4, 16, 8)
    a = strong_transversal_trials(H, 2.0, trials=16, seed=5, jobs=1)
    b = strong_transversal_trials(H, 2.0, trials=16, seed=5, jobs=2)
    assert a == b


def _strong_parts_reference(masks, n, p, rng):
    """The kernel's one trial as first written: one rng.random() < p per
    vertex."""
    x1 = 0
    for v in range(n):
        if rng.random() < p:
            x1 |= 1 << v
    x2 = x3 = 0
    for mask in masks:
        hit = (mask & x1).bit_count()
        if hit == 0:
            lo = mask & -mask
            x2 |= lo | ((mask ^ lo) & -(mask ^ lo))
        elif hit == 1:
            rest = mask & ~x1
            x3 |= rest & -rest
    return x1, x2, x3


def _unshift(z, s):
    # inverse of z ^ (z >> s) on 64 bits
    out = z
    for _ in range(64 // s):
        out = z ^ (out >> s)
    return out


def _state_before(u):
    """The state whose next splitmix64 draw is u."""
    z = _unshift(u, 31)
    z = _unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & _M64, 27)
    z = _unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _M64, 30)
    return (z - _GOLDEN) & _M64


def _draw_probabilities():
    ps = []
    for c in (1.01, 2.0, math.e, 10.0):
        for k in range(2, 51):
            try:
                ps.append(_strong_params(hypergraph(k, [range(k)]), c)[1])
            except ValueError:   # ln(ck)/(k-1) above 1
                pass
    return ps + [2.0 ** -64, 0.5, 1 - 2.0 ** -53]


def test_inline_draw_matches_random_below_p():
    ps = _draw_probabilities()
    assert len(ps) > 180
    draws = random.Random(25)
    for idx, p in enumerate(ps):
        t = _draw_threshold(p)
        assert (t - 1) / 2**64 < p <= t / 2**64
        # the two draws either side of the threshold, one vertex each
        for u in (t - 1, t):
            want, got = SplitMix64(_state_before(u)), SplitMix64(_state_before(u))
            assert want.next_u64() == u
            want.state = got.state
            assert _strong_kernel([1], 1, p)(got) \
                == _strong_parts_reference([1], 1, p, want)
            assert got.state == want.state
        n = 8 + idx % 60
        masks = [sum(1 << v for v in draws.sample(range(n), draws.randint(2, n)))
                 for _ in range(draws.randint(1, 12))]
        seed = split_seed(31, idx)
        want, got = SplitMix64(seed), SplitMix64(seed)
        assert _strong_kernel(masks, n, p)(got) \
            == _strong_parts_reference(masks, n, p, want)
        assert got.state == want.state


def _trial_rows_reference(H, c, seed, lo, hi):
    """_trial_rows as a per-trial loop over _strong_parts_reference."""
    _, p = _strong_params(H, c)
    masks = H.edge_masks()
    rows = []
    for i in range(lo, hi):
        rng = SplitMix64(split_seed(seed, i))
        x1, x2, x3 = _strong_parts_reference(masks, H.n, p, rng)
        union = x1 | x2 | x3
        rows.append(
            (union.bit_count(), x1.bit_count(), x2.bit_count(),
             x3.bit_count(), all((m & union).bit_count() >= 2 for m in masks))
        )
    return rows


def _kernel_instances():
    rng = random.Random(62)
    out = [_rand_hk(rng, k, rng.randint(k + 1, 2 * k + 2), rng.randint(2, 6))
           for k in range(2, 7)]
    out.append(random_hypergraph(50, 200, 200, 3, require_class=True))
    # 257-vertex edges: with p near 1 each is hit 256 or 257 times
    out.append(random_hypergraph(257, 300, 12, 4, require_class=True))
    return out


def test_kernel_matches_reference_draws():
    cases = [(H, H.edge_masks()) for H in _kernel_instances()]
    cases.append((Hypergraph(1, ((0,),)), (1,)))      # a single lane
    for idx, p in enumerate(_draw_probabilities()):
        t = _draw_threshold(p)
        for j, (H, masks) in enumerate(cases):
            draw = _strong_kernel(masks, H.n, p)
            # a random trial, then the draws either side of the threshold
            # placed at lane v
            v = idx % H.n
            seeds = [split_seed(idx, j)] + [
                (_state_before(u) - v * _GOLDEN) & _M64 for u in (t - 1, t)
            ]
            for seed in seeds:
                want, got = SplitMix64(seed), SplitMix64(seed)
                assert draw(got) == _strong_parts_reference(masks, H.n, p, want)
                assert got.state == want.state


def _valid_c(H, c):
    try:
        _strong_params(H, c)
    except ValueError:   # ln(ck)/(k-1) above 1
        return False
    return True


def test_trial_rows_match_reference_loop():
    instances = _kernel_instances()
    wide = instances[-1]
    assert _strong_params(wide, math.exp(250))[1] > 0.98
    for H in instances:
        cs = [c for c in (1.01, 2.0, math.e, 10.0, math.exp(250))
              if _valid_c(H, c)]
        assert cs
        for c in cs:
            assert _trial_rows(H, c, 17, 3, 11) \
                == _trial_rows_reference(H, c, 17, 3, 11)
            # the one-shot construction draws through the same kernel
            _, p = _strong_params(H, c)
            x1, x2, x3 = _strong_parts_reference(H.edge_masks(), H.n, p,
                                                 SplitMix64(29))
            assert randomized_strong_transversal(H, c, 29) \
                == tuple(bit_indices(x1 | x2 | x3))

