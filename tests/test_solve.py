import inspect
import itertools
import os
import random
import sys
from math import comb

import pytest

from hypertrans.construct import SplitMix64, split_seed
from hypertrans.hcore import (
    bit_indices, hypergraph, mask_neighborhoods, neighborhood_masks,
)
from hypertrans.solve import (
    InfeasibleError,
    _greedy,
    _min_selection,
    _parts,
    brute_force_oracle,
    ec_t,
    gamma,
    gamma_t,
    is_dominating,
    is_strong_transversal,
    is_total_dominating,
    is_total_edge_cover,
    is_total_transversal,
    is_transversal,
    solve,
    tau,
    tau_strong,
    tau_t,
)
from hypertrans.xform import (
    family_Fk, family_Fk_star, graph, onh, two_section,
)
from hypertrans.xsearch import random_hypergraph

from shapes import (
    cubic_graph, disjoint_union, family_base, pendant_hypergraph,
)


def c5():
    return hypergraph(5, [[i, (i + 1) % 5] for i in range(5)])


def p3():
    return hypergraph(3, [[0, 1], [1, 2]])


def _rand_hg(rng, n_max=9, m_max=7):
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    edges = []
    for _ in range(m):
        size = rng.randint(2, min(4, n))
        edges.append(rng.sample(range(n), size))
    return hypergraph(n, edges)


def _rand_graph(rng, n_max=8):
    n = rng.randint(2, n_max)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(1, min(len(pool), 10))
    return graph(n, rng.sample(pool, m))


def test_cycle_and_path_values():
    assert tau(c5()).value == 3
    assert tau_t(c5()).value == 4
    assert tau_strong(c5()).value == 5
    assert tau_t(p3()).value == 2


def test_two_triples_value():
    H = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    r = tau_t(H)
    assert r.value == 2
    assert is_total_transversal(H, r.witness)
    assert tau(H).value == 1


def test_domination_values():
    c6 = hypergraph(6, [[i, (i + 1) % 6] for i in range(6)])
    assert gamma(c6).value == 2
    assert gamma_t(c6).value == 4
    assert gamma_t(hypergraph(3, [[0, 1, 2]])).value == 2
    assert gamma_t(p3()).value == 2


def test_edge_cover_values():
    k4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert ec_t(k4).value == 3
    c6g = graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert ec_t(c6g).value == 4
    p3g = graph(3, [(0, 1), (1, 2)])
    r = ec_t(p3g)
    assert r.value == 2 and set(r.witness) == {(0, 1), (1, 2)}


def test_infeasible_cases():
    with pytest.raises(InfeasibleError, match="component"):
        ec_t(graph(2, [(0, 1)]))
    with pytest.raises(InfeasibleError, match="isolated"):
        ec_t(graph(3, [(0, 1)]))
    with pytest.raises(InfeasibleError, match="isolated"):
        gamma_t(hypergraph(4, [[0, 1, 2]]))
    # the oracle reaches the same verdict by exhaustion
    with pytest.raises(InfeasibleError):
        brute_force_oracle(hypergraph(4, [[0, 1, 2]]), "gamma_t")
    with pytest.raises(InfeasibleError):
        brute_force_oracle(graph(2, [(0, 1)]), "ec_t")


def test_oracle_values_and_cap():
    assert brute_force_oracle(c5(), "tau_t").value == 4
    assert brute_force_oracle(c5(), "tau").value == 3
    big = hypergraph(30, [[i, i + 1] for i in range(29)])
    with pytest.raises(ValueError, match="cap"):
        brute_force_oracle(big, "tau")


def test_dispatch():
    assert solve(c5(), "tau").value == 3
    with pytest.raises(ValueError, match="unknown"):
        solve(c5(), "vertex_cover")


def test_witnesses_are_valid_and_deterministic():
    rng = random.Random(2026)
    for _ in range(40):
        H = _rand_hg(rng)
        for fn, pred in [
            (tau, is_transversal),
            (tau_t, is_total_transversal),
            (gamma_t, is_total_dominating),
        ]:
            try:
                a = fn(H)
            except InfeasibleError:
                continue
            b = fn(H)
            assert (a.value, a.witness) == (b.value, b.witness)
            assert pred(H, a.witness)
            assert len(a.witness) == a.value


def _is_total_transversal_by_pairs(H, S) -> bool:
    """The member-by-edge form of `is_total_transversal`, its reference."""
    s = set(S)
    if not all(s.intersection(e) for e in H.edges):
        return False
    for v in s:
        if not any(v in e and s.intersection(e) - {v} for e in H.edges):
            return False
    return True


def _is_total_edge_cover_by_pairs(G, F) -> bool:
    """The edge-by-edge form of `is_total_edge_cover`, its reference."""
    chosen = set(tuple(sorted(e)) for e in F)
    if not chosen.issubset(set(G.edges)):
        return False
    covered = {v for e in chosen for v in e}
    if len(covered) != G.n:
        return False
    for e in chosen:
        if not any(f != e and set(f) & set(e) for f in chosen):
            return False
    return True


def test_linear_predicates_match_the_pairwise_ones():
    """`is_total_transversal` and `is_total_edge_cover`, one pass over the
    edges each, agree with their pairwise forms on random sets: empty ones,
    ones with members in no edge or outside the vertices, edge sets with
    reversed pairs, repeats and non-edges, and witnesses of the solver, so
    that both verdicts occur often."""
    rng = random.Random(3030)
    verdicts = {(name, ok): 0 for name in ("tau_t", "ec_t")
                for ok in (False, True)}
    for trial in range(1500):
        H = _rand_hg(rng, n_max=9, m_max=7)
        if trial % 3 == 0:
            try:
                S = list(tau_t(H).witness)
            except InfeasibleError:
                S = []
            if S and trial % 2:
                S.remove(rng.choice(S))
        else:
            S = rng.sample(range(H.n + 2), rng.randint(0, H.n + 2))
        want = _is_total_transversal_by_pairs(H, S)
        assert is_total_transversal(H, S) == want, (H, S)
        verdicts["tau_t", want] += 1
        G = _rand_graph(rng, n_max=8)
        if trial % 3 == 0:
            try:
                F = list(ec_t(G).witness)
            except InfeasibleError:
                F = []
            if F and trial % 2:
                F.remove(rng.choice(F))
        else:
            F = rng.sample(G.edges, rng.randint(0, G.m))
        if F and rng.random() < 0.3:
            F.append(F[0][::-1])   # the same edge again, reversed
        if rng.random() < 0.2:
            u, v = rng.sample(range(G.n + 1), 2)
            F.append((u, v))   # often a non-edge
        want = _is_total_edge_cover_by_pairs(G, F)
        assert is_total_edge_cover(G, F) == want, (G, F)
        verdicts["ec_t", want] += 1
    assert min(verdicts.values()) >= 150, verdicts


def _twin_and_nested(rng, H):
    """H plus a twin of one vertex (a new vertex in exactly its edges) and a
    copy of one edge grown by one vertex, so that the copy nests over it."""
    v = rng.randrange(H.n)
    edges = [list(e) + [H.n] if v in e else list(e) for e in H.edges]
    e = rng.choice(edges)
    outside = [u for u in range(H.n + 1) if u not in e]
    if outside:
        edges.append(e + [rng.choice(outside)])
    return hypergraph(H.n + 1, edges)


_ALL = ("tau", "tau_t", "tau_strong", "gamma", "gamma_t")
_DEFINITIONS = {
    "tau": is_transversal,
    "tau_t": is_total_transversal,
    "tau_strong": is_strong_transversal,
    "gamma": is_dominating,
    "gamma_t": is_total_dominating,
    "ec_t": is_total_edge_cover,
}


# Instances whose value was decided at a split below the root while the
# plain hitting sets split their open requirements inside the search, where a
# group search had to respect its cap or a one-requirement group had several
# items to pick from.  Random instances of this size rarely got there (a few
# in ten thousand), so these were taken from a seeded search over random
# in-class instances; they stay as oracle checks of the search without it.
_DEEP_SPLITS = (
    ("gamma_t", [[0, 2, 3], [1, 2, 6], [1, 5, 6], [4, 7, 8], [4, 10, 11],
                 [5, 9, 13], [7, 12, 13]]),
    ("gamma_t", [[0, 6, 10], [1, 4, 9], [1, 5, 6], [2, 5, 8], [3, 4, 9],
                 [3, 7, 10], [5, 7, 8], [5, 7, 10], [6, 8, 9], [6, 8, 10]]),
    ("tau", [[0, 1], [0, 5], [0, 9], [0, 15], [1, 2], [2, 3], [2, 5], [3, 4],
             [3, 5], [3, 6], [4, 7], [4, 8], [4, 9], [4, 12], [5, 6], [5, 8],
             [5, 9], [5, 10], [6, 13], [7, 8], [7, 12], [9, 15], [10, 11],
             [10, 14], [11, 14], [14, 15]]),
    ("tau", [[0, 3], [0, 4], [0, 5], [1, 2], [1, 7], [1, 10], [1, 11], [2, 6],
             [2, 7], [2, 11], [3, 7], [3, 9], [3, 10], [4, 5], [4, 11], [5, 6],
             [5, 8], [6, 10], [6, 11], [7, 8], [7, 11], [9, 10], [9, 11],
             [10, 11]]),
)


def _leafy_graph(rng, n):
    """Mostly a random forest (each vertex hangs off an earlier one), plus up
    to two extra edges: leaves, pendant paths and single-edge components."""
    edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edges]
    edges.update(rng.sample(pool, min(len(pool), rng.randint(0, 2))))
    return graph(n, sorted(edges))


def _side_and_demand_cases():
    """(instance, invariants, oracle cap) for tau_t, tau_strong and ec_t:
    2-uniform components that are single edges or full of leaves, degree-1
    vertices in 3- and 4-uniform instances, graphs with pendant vertices
    (whose one-edge requirement nests inside the neighbor's), and cubic
    graphs, where the coverage bound is tight."""
    rng = random.Random(5150)
    single = graph(2, [(0, 1)])
    for _ in range(40):
        G = _leafy_graph(rng, rng.randint(3, 11))
        yield G, ("ec_t",), 24
        yield G.to_hypergraph(), ("tau_t", "tau_strong"), 24
        yield (disjoint_union(single.to_hypergraph(), G.to_hypergraph()),
               ("tau_t", "tau_strong"), 24)
    for _ in range(40):
        k = rng.choice((3, 4))
        H = pendant_hypergraph(rng, k, rng.randint(k, 7), rng.randint(2, 5))
        yield H, ("tau_t", "tau_strong"), 24
    for n in (4, 6, 6, 8, 8, 8):
        G = cubic_graph(rng, n)
        yield G, ("ec_t",), 24
        yield G.to_hypergraph(), ("tau_t", "tau_strong"), 24


def _reduction_cases():
    """(instance, invariants, oracle cap): disjoint unions split at the root,
    twins and nested edges trigger dominance, and the pendant gadgets of the
    tightness families need both."""
    for inv, edges in _DEEP_SPLITS:
        yield hypergraph(max(map(max, edges)) + 1, edges), (inv,), 24
    rng = random.Random(4242)
    for _ in range(25):
        parts = [_rand_hg(rng, n_max=5, m_max=4)
                 for _ in range(rng.randint(2, 3))]
        yield disjoint_union(*parts), _ALL, 24
    for _ in range(30):
        yield _twin_and_nested(rng, _rand_hg(rng, n_max=8, m_max=6)), _ALL, 24
    for n in (3, 4, 5):
        yield family_Fk(family_base(rng, 2, n, False), 2).hypergraph, _ALL, 24
    yield (family_Fk(family_base(rng, 3, 4, False), 3).hypergraph,
           ("tau", "gamma", "gamma_t"), 24)
    # the smallest 3-uniform star base has 5 vertices, so 25 items: gamma_t
    # (10 of them) is beyond exhaustion, criterion 08 checks its closed form
    yield (family_Fk_star(family_base(rng, 3, 5, True), 3).hypergraph,
           ("tau", "gamma"), 25)
    yield from _side_and_demand_cases()


def _assert_matches_oracle(obj, inv, cap=24):
    try:
        got = solve(obj, inv)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            brute_force_oracle(obj, inv, cap)
        return
    want = brute_force_oracle(obj, inv, cap).value
    assert got.value == want, (inv, obj)
    assert len(got.witness) == got.value
    assert _DEFINITIONS[inv](obj, got.witness), (inv, obj, got.witness)


def test_reductions_and_splitting_match_oracle():
    """Every invariant splits into parts at the root; tau, gamma and gamma_t
    use item dominance, tau_strong drops items at demand 2, tau_t and ec_t
    under the side constraint, and those three bound every node by
    coverage."""
    for obj, invariants, cap in _reduction_cases():
        for inv in invariants:
            _assert_matches_oracle(obj, inv, cap)


def test_oracle_sweep():
    """Opt-in: HYPERTRANS_ORACLE_SWEEP=N checks N random instances (n <= 12)
    against the brute-force oracle, each for the five hypergraph invariants
    plus ec_t on a random graph.  Skipped when unset, since 10,000 instances
    take minutes."""
    count = int(os.environ.get("HYPERTRANS_ORACLE_SWEEP") or 0)
    if count <= 0:
        pytest.skip("set HYPERTRANS_ORACLE_SWEEP=N to check N instances")
    rng = random.Random(1212)
    for _ in range(count):
        H = _rand_hg(rng, n_max=12, m_max=8)
        for inv in _ALL:
            _assert_matches_oracle(H, inv)
        _assert_matches_oracle(_rand_graph(rng, n_max=9), "ec_t")


def _holds_of(reqs, allowed) -> list[int]:
    """Item index -> bits of the requirements holding it, for the items of
    allowed, by the definition."""
    return [sum(1 << r for r, (mask, _) in enumerate(reqs) if mask >> i & 1)
            if allowed >> i & 1 else 0 for i in range(allowed.bit_length())]


def test_greedy_raises_when_nothing_can_be_picked():
    # three items wanted where two exist
    with pytest.raises(InfeasibleError):
        _greedy([(0b11, 3)], None, 0b11, _holds_of([(0b11, 3)], 0b11))
    with pytest.raises(InfeasibleError):
        _min_selection(2, [(0b11, 3)])
    # the single edge {0, 1} under the side constraint with item 0 dropped,
    # as dominance without its neighbor guard would: 1 is left alone
    with pytest.raises(InfeasibleError):
        _greedy([(0b11, 1)], [0b10, 0b01], 0b10,
                _holds_of([(0b11, 1)], 0b10))
    assert _min_selection(2, [(0b11, 1)], total=True)[:2] == (2, 0b11)


def test_side_constraint_greedy():
    """Under the side constraint the greedy meets every requirement and no
    pick is left without a picked neighbor.  It gets stuck exactly when no
    selection of allowed items exists: when some requirement holds no
    allowed item that has an allowed neighbor."""
    rng = random.Random(6006)
    outcomes = {True: 0, False: 0}
    for trial in range(600):
        if trial % 2:
            G = _rand_graph(rng, n_max=10)
            masks = [0] * G.n
            for i, (u, v) in enumerate(G.edges):
                masks[u] |= 1 << i
                masks[v] |= 1 << i
            nitems = G.m
        else:
            H = _rand_hg(rng, n_max=10, m_max=8)
            masks, nitems = H.edge_masks(), H.n
        reqs = [(m, 1) for m in masks]
        adj = mask_neighborhoods(nitems, masks)
        allowed = (1 << nitems) - 1
        if trial % 3 == 0:   # as a reduction might leave it
            allowed &= rng.getrandbits(nitems)
        usable = sum(1 << i for i in bit_indices(allowed) if adj[i] & allowed)
        feasible = all(m & usable for m in masks)
        outcomes[feasible] += 1
        if not feasible:
            with pytest.raises(InfeasibleError):
                _greedy(reqs, adj, allowed, _holds_of(reqs, allowed))
            continue
        sel = _greedy(reqs, adj, allowed, _holds_of(reqs, allowed))
        assert sel & ~allowed == 0
        assert all(m & sel for m in masks)
        assert all(adj[i] & sel for i in bit_indices(sel))
    assert min(outcomes.values()) >= 50, outcomes
    # stuck after a first move: the pair {0, 1} meets the first
    # requirement, and nothing usable is left for the second
    reqs = [(0b011, 1), (0b100, 1)]
    with pytest.raises(InfeasibleError):
        _greedy(reqs, [0b010, 0b001, 0], 0b011, _holds_of(reqs, 0b011))


def _scan_greedy(reqs, adj, allowed, holds) -> int:
    """The greedy as it was before its heap: a scan over every free item at
    every step, kept as the reference for `_greedy`.  Without adj, the item
    in the most unmet requirements, the lowest index on ties; with adj, the
    best single item that sees a pick (gain doubled) or free item with a
    free usable neighbor, the first found on ties."""
    sel = 0
    unmet = (1 << len(reqs)) - 1
    if adj is not None:
        while unmet:
            best_gain, best_move = 0, 0
            for i in bit_indices(allowed & ~sel):
                if adj[i] & sel:
                    gain = 2 * (holds[i] & unmet).bit_count()
                    if gain > best_gain:
                        best_gain, best_move = gain, 1 << i
                    continue
                for j in bit_indices(adj[i] & allowed & ~sel):
                    gain = ((holds[i] | holds[j]) & unmet).bit_count()
                    if gain > best_gain:
                        best_gain, best_move = gain, 1 << i | 1 << j
            if not best_move:
                r = (unmet & -unmet).bit_length() - 1
                raise InfeasibleError(
                    f"requirement {bin(reqs[r][0])} has no usable item with "
                    f"a usable neighbor"
                )
            sel |= best_move
            for i in bit_indices(best_move):
                unmet &= ~holds[i]
        return sel
    short = [need for _, need in reqs]
    while unmet:
        best_gain, best_item = 0, 0
        for i in bit_indices(allowed & ~sel):
            gain = (holds[i] & unmet).bit_count()
            if gain > best_gain:
                best_gain, best_item = gain, i
        if not best_gain:
            r = (unmet & -unmet).bit_length() - 1
            raise InfeasibleError(
                f"requirement {bin(reqs[r][0])} has too few usable items"
            )
        sel |= 1 << best_item
        for r in bit_indices(holds[best_item] & unmet):
            short[r] -= 1
            if not short[r]:
                unmet ^= 1 << r
    return sel


def test_lazy_greedy_picks_what_the_scan_picked():
    """`_greedy` returns the scan's selection, or raises its error text, on
    random requirement systems: demand 1, demand 1 and 2 mixed, and demand
    1 under the side constraint; every item allowed or a random subset, as
    a reduction leaves it, with holds over every item, as `_thin` gives
    them.  The masks come from a few items, often repeat, and often hold a
    twin of another item, so gains tie at many steps."""
    rng = random.Random(2020)
    counts = {(kind, bad): 0 for kind in range(3) for bad in (False, True)}
    twins = 0
    for trial in range(3000):
        kind = trial % 3   # demand 1, demand 2 mixed in, side constraint
        nitems = rng.randint(1, 12)
        pool = rng.sample(range(nitems), rng.randint(1, nitems))
        masks = []
        for _ in range(rng.randint(1, 10)):
            if masks and rng.random() < 0.3:
                masks.append(rng.choice(masks))
                continue
            size = rng.randint(1, min(4, len(pool)))
            masks.append(sum(1 << i for i in rng.sample(pool, size)))
        if nitems > 1 and rng.random() < 0.5:
            # b joins exactly the masks of a
            a, b = rng.sample(range(nitems), 2)
            masks = [m | 1 << b if m >> a & 1 else m & ~(1 << b)
                     for m in masks]
            twins += any(m >> a & 1 for m in masks)
        reqs = [(m, 2 if kind == 1 and rng.random() < 0.6 else 1)
                for m in masks]
        adj = mask_neighborhoods(nitems, masks) if kind == 2 else None
        allowed = (1 << nitems) - 1
        holds = _holds_of(reqs, allowed)
        if trial % 4 == 0:
            allowed &= rng.getrandbits(nitems)
        got = []
        for fn in (_scan_greedy, _greedy):
            try:
                got.append(fn(reqs, adj, allowed, holds))
            except InfeasibleError as exc:
                got.append(str(exc))
        assert got[0] == got[1], (reqs, allowed, kind)
        counts[kind, isinstance(got[0], str)] += 1
    assert min(counts.values()) >= 100, counts
    assert twins >= 500, twins
    # after the pair (0, 5), item 8 sees item 0 and is worth 6 alone, more
    # than its old pair score of 5 (with item 7): only scoring it afresh
    # makes the scan's next pick
    edges = [[3, 7], [6, 7, 8], [7, 8], [4, 5], [2, 7, 8], [0, 8], [2],
             [1, 5], [0, 5], [1, 5]]
    masks = [sum(1 << i for i in e) for e in edges]
    reqs = [(m, 1) for m in masks]
    adj = mask_neighborhoods(9, masks)
    holds = _holds_of(reqs, 0x1FF)
    want = _scan_greedy(reqs, adj, 0x1FF, holds)
    assert want == 1 << 0 | 1 << 2 | 1 << 5 | 1 << 7 | 1 << 8
    assert _greedy(reqs, adj, 0x1FF, holds) == want


def test_side_constraint_on_the_100_vertex_path():
    """On a path the root bound already equals the optimum, so an optimal
    first incumbent leaves the search nothing to do."""
    n = 100
    P = hypergraph(n, [[i, i + 1] for i in range(n - 1)])
    G = graph(n, [(i, i + 1) for i in range(n - 1)])
    for obj, fn, pred, want in ((P, tau_t, is_total_transversal, 66),
                                (G, ec_t, is_total_edge_cover, 67)):
        got = fn(obj)
        assert got.value == want == len(got.witness)
        assert pred(obj, got.witness)
        assert got.nodes <= 10, (fn.__name__, got.nodes)


# tau_t search nodes on the ladder random_hypergraph(3, n, m, 7,
# require_class=True) for (n, m) = (58, 50), (69, 60), (83, 70) without the
# side-constraint dominance and the coverage bound: 43,322 + 21,360 +
# 141,583.  They must cut it at least tenfold.  Node counts do not depend on
# the machine.
TAU_T_LADDER_NODES_BEFORE = 206_265


def test_tau_t_ladder_nodes():
    nodes = 0
    for (n, m), want in zip(((58, 50), (69, 60), (83, 70)), (19, 19, 24)):
        H = random_hypergraph(3, n, m, 7, require_class=True)
        got = tau_t(H)
        assert got.value == want == len(got.witness)
        assert is_total_transversal(H, got.witness)
        nodes += got.nodes
    assert nodes <= TAU_T_LADDER_NODES_BEFORE // 10, nodes


# tau_strong search nodes on random_hypergraph(4, 40, 40, s,
# require_class=True) for s = 0..9 while the node bound packed only
# requirements disjoint from those already packed, and branching took the
# requirement with the fewest candidates: 23,695.  Counting what a
# requirement still needs outside the packed candidates, and branching on the
# least slack, must at least halve them.
TAU_STRONG_NODES_BEFORE = 23_695


def test_tau_strong_nodes():
    nodes = 0
    for s, want in enumerate((18, 19, 18, 19, 18, 18, 18, 14, 20, 17)):
        H = random_hypergraph(4, 40, 40, s, require_class=True)
        got = tau_strong(H)
        assert got.value == want == len(got.witness)
        assert is_strong_transversal(H, got.witness)
        nodes += got.nodes
    assert nodes <= TAU_STRONG_NODES_BEFORE // 2, nodes
    assert nodes <= SIBLING_NODES["tau_strong"], nodes


def test_demand_aware_packing():
    """At demand 2 a requirement sharing one item with the packed ones still
    needs one more pick.  Here thinning leaves {3,6}, {1,4}, {0,1,2} and
    {0,2,4}: the first two count 4, and {0,1,2}, which shares only item 1
    with them, one more.  So the root bound equals the greedy's 5 and the
    search stops at its first node, where the disjoint packing stopped at
    4."""
    H = hypergraph(8, [[3, 6, 7], [1, 4, 5], [0, 1, 2], [0, 2, 4]])
    got = tau_strong(H)
    # {3,6,7} shares no item with the other three edges, so the two parts
    # are searched apart, each closing at its own root: one node per part
    parts = _parts([(m, 2) for m in H.edge_masks()])
    assert (got.value, got.nodes, len(parts)) == (5, 2, 2)
    # mixed demands of 1 and 2 against a brute-force minimum, a quarter of
    # the requirements having exactly as many items as they need
    rng = random.Random(2727)
    for _ in range(1500):
        n = rng.randint(2, 10)
        reqs = []
        for _ in range(rng.randint(1, 7)):
            need = rng.choice((1, 2))
            if rng.random() < 0.25:
                items = rng.sample(range(n), need)
            else:
                items = rng.sample(range(n), rng.randint(need, n))
            reqs.append((sum(1 << i for i in items), need))
        best = next(
            len(combo)
            for size in range(n + 1)
            for combo in itertools.combinations(range(n), size)
            if all((m & sum(1 << i for i in combo)).bit_count() >= need
                   for m, need in reqs)
        )
        size, mask, _ = _min_selection(n, reqs)
        assert size == best == mask.bit_count(), (n, reqs)
        assert all((m & mask).bit_count() >= need for m, need in reqs)


def test_zero_gap_fixing_matches_oracle(monkeypatch):
    """A node whose packing bound is one below the incumbent searches only
    the candidates of the entries the packing counted.  Every instance kept
    here starts at zero gap: the packing of its first part's reduced
    requirements is that part's greedy size less one, so the rule fires at
    the part's root.  The solver
    must agree with the oracle on each, and each of the six invariants must
    get at least 50 of them, so the check cannot pass vacuously.  The random
    loop of test_demand_aware_packing takes raw requirement lists without
    the side constraint, so tau_t and ec_t could not go there."""
    module = sys.modules["hypertrans.solve"]
    search = module._search
    at_zero_gap = []   # per search call, one per part, in part order

    def spy(reqs, adj, allowed, greedy, *rest, **kwargs):
        root = [((m & allowed).bit_count() - need, m & allowed, need)
                for m, need in reqs]
        at_zero_gap.append(module._packing(root)[0] == greedy.bit_count() - 1)
        return search(reqs, adj, allowed, greedy, *rest, **kwargs)

    monkeypatch.setattr(module, "_search", spy)
    rng = random.Random(6060)
    fired = dict.fromkeys(_DEFINITIONS, 0)
    for _ in range(5000):
        H, G = _rand_hg(rng), _rand_graph(rng)
        for inv in fired:
            obj = G if inv == "ec_t" else H
            at_zero_gap.clear()
            try:
                solve(obj, inv)
            except InfeasibleError:
                continue
            if at_zero_gap[0]:
                fired[inv] += 1
                _assert_matches_oracle(obj, inv)
    assert min(fired.values()) >= 50, fired


def test_zero_gap_rewalk_reading_lower_stops_restricting(monkeypatch):
    """At zero gap a node walks its restricted entries again and restricts
    once more while the walk reads the same bound.  The walk is greedy by
    slack, so a restricted walk can read less than the first one, and its
    used then need not hold every pick: restricting to it loses optima.  In
    the fixed instance that restriction gave tau 4 for 3.  The random ones
    are those where some node's re-walk read less than the walk before it,
    found by a spy on _packing (a re-walk gets the same list of entries)."""
    H = hypergraph(12, [[0, 2, 3, 7], [0, 2, 7, 11], [0, 5], [1, 3],
                        [1, 4, 7, 10], [2, 4], [3, 5, 6, 10]])
    assert tau(H).value == brute_force_oracle(H, "tau").value == 3
    module = sys.modules["hypertrans.solve"]
    packing = module._packing
    last = [None, 0]   # the entries of the latest walk, kept alive, and lb
    read_lower = []

    def spy(active):
        lb, used = packing(active)
        if active is last[0] and lb < last[1]:
            read_lower.append(True)
        last[:] = [active, lb]
        return lb, used

    monkeypatch.setattr(module, "_packing", spy)
    rng = random.Random(4)
    fired = dict.fromkeys(_DEFINITIONS, 0)
    for _ in range(3000):
        H, G = _rand_hg(rng, n_max=14, m_max=10), _rand_graph(rng, n_max=9)
        for inv in fired:
            obj = G if inv == "ec_t" else H
            read_lower.clear()
            try:
                solve(obj, inv)
            except InfeasibleError:
                continue
            if read_lower:
                fired[inv] += 1
                _assert_matches_oracle(obj, inv)
    assert sum(fired.values()) >= 40, fired


# Every F_3 draw of test_gamma_t_cuts_match_oracle fires; with the in-class
# draws' few, this many clear its floor of 50 with room to spare.
F3_DRAWS = 60


def test_gamma_t_cuts_match_oracle(monkeypatch):
    """gamma_t adds a rank-2 cut per vertex u, two picks inside N(u) and the
    N(c) of every c in N(u), and a node keeps the walk that takes the cuts
    first when it reads more than the plain one.  The instances kept here
    are those where the cuts raise some node's bound, found by a spy on
    _cuts_first: that walk reads more than the plain one, or the bound more
    than the walk of the requirements alone.  The solver must agree with
    the oracle on each.  Draws of _rand_hg get there once or twice in a
    thousand, too seldom to be worth drawing, so two other kinds are drawn:
    in-class k-uniform ones with their 2-sections, the shapes of criterion
    06, where a cut of N(u) alone gives wrong values, and F_3 expansions of
    4-vertex bases.

    The in-class draws fire only a few times: their requirements mostly
    fall into parts that share no item, each solved apart, mostly closing
    at zero gap, where no cut is added, and a cut reaching another part is
    dropped.  Pendant hypergraphs fire none for the same reason, so they
    are not drawn.  Each gadget of an expansion needs two picks where the
    packing counts one, so the cuts fire on every F_3 expansion.  Its base
    is drawn at criterion 08's smallest order, 4 vertices (16 in the
    expansion), since the oracle takes about 3 s at 20 vertices against
    0.15 s at 16.  Such bases have only a few labellings, so the
    expansion's vertices are relabelled at random.  F_2 expansions never
    fire.  At least 50 instances must fire."""
    module = sys.modules["hypertrans.solve"]
    cuts_first, packing = module._cuts_first, module._packing
    fired = []

    def spy(active, ncut, span):
        lb, used = cuts_first(active, ncut, span)
        if lb > min(packing(active)[0],
                    packing(active[:len(active) - ncut])[0]):
            fired.append(True)
        return lb, used

    def draws(rng):
        for _ in range(2000):
            k = rng.randint(2, 4)
            n = rng.randint(k + 1, 10)
            F = random_hypergraph(k, n,
                                  rng.randint(2, min(5, comb(n, k) - 1)),
                                  rng.getrandbits(64), require_class=True)
            yield "class", F
            yield "class", two_section(F).to_hypergraph()
        for _ in range(F3_DRAWS):
            H = family_Fk(family_base(rng, 3, 4, False), 3).hypergraph
            label = rng.sample(range(H.n), H.n)
            yield "F_3", hypergraph(H.n, [[label[v] for v in e]
                                          for e in H.edges])

    monkeypatch.setattr(module, "_cuts_first", spy)
    count = dict.fromkeys(("class", "F_3"), 0)
    for kind, H in draws(random.Random(7070)):
        fired.clear()
        try:
            gamma_t(H)
        except InfeasibleError:
            continue
        if fired:
            count[kind] += 1
            _assert_matches_oracle(H, "gamma_t")
    assert sum(count.values()) >= 50, count


# Bipartite graphs whose gamma_t requirements fall into two parts, the open
# neighbourhoods of either side, where one part's root is at a nonzero gap,
# so that it adds its cuts.  Every U_u spans both sides; restricted to one
# part instead of dropped, the cuts give 8 for 7, 11 for 10 and 9 for 7.
# Found by comparing that restriction with this solver on random bipartite
# graphs of 16 to 24 vertices, about one in three thousand.
_BIPARTITE_CUT_CASES = (
    (21, [(0, 11), (0, 15), (1, 9), (1, 13), (1, 16), (1, 17), (1, 19),
          (2, 9), (2, 15), (3, 11), (3, 19), (4, 10), (4, 13), (4, 15),
          (4, 18), (4, 19), (5, 9), (5, 15), (6, 12), (6, 14), (6, 15),
          (6, 20), (7, 14), (7, 16), (8, 9), (8, 11), (8, 12), (8, 13),
          (8, 14)], 7),
    (24, [(0, 14), (0, 18), (0, 20), (1, 15), (1, 22), (2, 12), (2, 19),
          (2, 22), (2, 23), (3, 14), (3, 19), (4, 17), (4, 18), (5, 16),
          (5, 17), (5, 18), (6, 12), (6, 23), (7, 12), (7, 17), (7, 21),
          (8, 14), (8, 15), (8, 20), (9, 16), (10, 12), (10, 13), (10, 14),
          (10, 16), (10, 19), (11, 19), (11, 23)], 10),
    (23, [(0, 12), (0, 13), (0, 14), (0, 17), (1, 12), (1, 15), (1, 16),
          (1, 19), (2, 12), (2, 17), (2, 21), (2, 22), (3, 14), (3, 18),
          (3, 20), (3, 22), (4, 15), (4, 17), (4, 22), (5, 13), (5, 15),
          (5, 16), (5, 17), (6, 13), (6, 16), (6, 20), (7, 15), (7, 19),
          (7, 22), (8, 11), (8, 12), (8, 14), (8, 15), (8, 20), (9, 11),
          (9, 16), (9, 18), (10, 13), (10, 19), (10, 22)], 7),
)


def test_gamma_t_drops_cuts_that_reach_another_part():
    """A cut U_u is implied only for a selection of the whole: a part may
    take it only when U_u lies inside the part's items.  gamma_t is tau of
    the open neighbourhoods, which adds no cuts, and the first graph is
    small enough for the oracle as well."""
    for i, (n, edges, want) in enumerate(_BIPARTITE_CUT_CASES):
        H = hypergraph(n, edges)
        got = gamma_t(H)
        assert got.value == want == tau(onh(H)).value == len(got.witness)
        assert is_total_dominating(H, got.witness)
        assert len(_parts([(m, 1) for m in neighborhood_masks(H)])) == 2
        if i == 0:
            assert brute_force_oracle(H, "gamma_t").value == want


def test_coverage_fixing_matches_oracle(monkeypatch):
    """A non-hitting node whose coverage bound does not prune bans every
    free item whose doubled score falls short of twice the deficit less
    the t - 1 best scores, t being the most picks a selection beating the
    incumbent can add.  The instances kept are those where some node bans
    an item, found by a spy on _coverage; the solver must agree with the
    oracle on each, and tau_t, tau_strong and ec_t must each get at least
    20 of them.  The draws number 8,000: with the local search's incumbent
    fewer searches reach a node that bans, and 5,000 draws gave tau_strong
    only 16."""
    module = sys.modules["hypertrans.solve"]
    coverage = module._coverage
    fired = []

    def spy(*args):
        fixed = coverage(*args)
        if fixed:
            fired.append(True)
        return fixed

    monkeypatch.setattr(module, "_coverage", spy)
    rng = random.Random(8080)
    count = dict.fromkeys(("tau_t", "tau_strong", "ec_t"), 0)
    for _ in range(8000):
        H, G = _rand_hg(rng, n_max=14, m_max=10), _rand_graph(rng, n_max=9)
        for inv in count:
            obj = G if inv == "ec_t" else H
            fired.clear()
            try:
                solve(obj, inv)
            except InfeasibleError:
                continue
            if fired:
                count[inv] += 1
                _assert_matches_oracle(obj, inv)
    assert min(count.values()) >= 20, count


# tau_t search nodes on random_hypergraph(3, 100, 85, split_seed(7, s),
# require_class=True) for s = 0, 1 before zero-gap fixing: 14,447 + 9,114.
# Fixing must at least halve them.  With one restriction per node they took
# 7,195; restricting again while the restricted walk reads the same bound,
# and pruning when it reaches the incumbent, must bring them to 6,000.
TAU_T_ZERO_GAP_NODES_BEFORE = 23_561
TAU_T_ZERO_GAP_FIXPOINT_NODES = 6_000


def test_zero_gap_fixing_nodes():
    nodes = 0
    for s, want in enumerate((29, 28)):
        H = random_hypergraph(3, 100, 85, split_seed(7, s), require_class=True)
        got = tau_t(H)
        assert got.value == want == len(got.witness)
        assert is_total_transversal(H, got.witness)
        nodes += got.nodes
    assert nodes <= TAU_T_ZERO_GAP_NODES_BEFORE // 2, nodes
    assert nodes <= TAU_T_ZERO_GAP_FIXPOINT_NODES, nodes


# ec_t search nodes on three pairing-model cubic graphs for each n = 12, 14,
# ..., 24, drawn by cubic_graph from random.Random(0), while the first
# incumbent covered every requirement before giving lonely picks a neighbor:
# 24,382.  The pair-aware incumbent must cut at least 60% of them.  Every one
# of these graphs has ec_t = ceil(2n / 3).  Before coverage fixing they took
# 7,345 nodes and with it 2,590; fixing must keep them within 3,000.
EC_T_CUBIC_NODES_BEFORE = 24_382
EC_T_CUBIC_FIXING_NODES = 3_000


def test_ec_t_cubic_nodes():
    rng = random.Random(0)
    nodes = 0
    for n in range(12, 25, 2):
        for _ in range(3):
            G = cubic_graph(rng, n)
            got = ec_t(G)
            assert got.value == -(-2 * n // 3) == len(got.witness)
            assert is_total_edge_cover(G, got.witness)
            nodes += got.nodes
    assert nodes <= EC_T_CUBIC_NODES_BEFORE * 2 // 5, nodes
    assert nodes <= EC_T_CUBIC_FIXING_NODES, nodes
    assert nodes <= INCUMBENT_NODES["ec_t cubic"], nodes


# Search nodes before the local search at a gapped root and the restart at
# the root bound, and the ceilings with them: the cubic graphs of
# test_ec_t_cubic_nodes 2,590 and 164; tau_t on 20 draws of
# random_hypergraph(3, 50, 42, split_seed(18, i), require_class=True) and
# tau_strong on 10 of random_hypergraph(4, 40, 40, split_seed(18, i),
# require_class=True), the shapes of the benchmark's exact solves, 1,323
# and 1,164, and 2,194 and 2,089.
INCUMBENT_NODES = {"ec_t cubic": 200, "tau_t": 1_200, "tau_strong": 2_100}


def test_incumbent_nodes():
    for inv, (k, n, m, count), values in (
        ("tau_t", (3, 50, 42, 20), (15, 16, 14, 12, 14, 15, 15, 15, 15, 14,
                                    15, 15, 13, 15, 14, 14, 15, 15, 14, 15)),
        ("tau_strong", (4, 40, 40, 10), (18, 18, 18, 18, 17, 19, 18, 18, 19,
                                         19)),
    ):
        nodes = 0
        for i, want in zip(range(count), values, strict=True):
            H = random_hypergraph(k, n, m, split_seed(18, i),
                                  require_class=True)
            got = solve(H, inv)
            assert got.value == want == len(got.witness), (inv, i)
            assert _DEFINITIONS[inv](H, got.witness)
            nodes += got.nodes
        assert nodes <= INCUMBENT_NODES[inv], (inv, nodes)


def test_local_search_is_feasible_and_no_larger(monkeypatch):
    """Every part's greedy goes through _local_search here, whatever its
    root gap, by a spy on _greedy.  The result must lie in the part's
    usable items, meet every requirement, give each pick a picked neighbor
    under the side constraint, and be no larger than the greedy.  The
    solver's values must match the oracle on the same draws, and the local
    search must shrink some greedy with and without the side constraint
    (ec_t and tau_strong), so the check cannot pass vacuously."""
    module = sys.modules["hypertrans.solve"]
    greedy, local_search = module._greedy, module._local_search
    calls = dict.fromkeys(_ALL + ("ec_t",), 0)
    shrunk = dict.fromkeys(calls, 0)
    inv = None

    def spy(reqs, adj, allowed, holds):
        sel = greedy(reqs, adj, allowed, holds)
        better = local_search(reqs, adj, allowed, holds, sel)
        assert better & ~allowed == 0
        assert all((m & better).bit_count() >= need for m, need in reqs)
        if adj is not None:
            assert all(adj[p] & better for p in bit_indices(better))
        assert better.bit_count() <= sel.bit_count()
        calls[inv] += 1
        shrunk[inv] += better.bit_count() < sel.bit_count()
        return sel

    monkeypatch.setattr(module, "_greedy", spy)
    rng = random.Random(1818)
    for _ in range(600):
        H, G = _rand_hg(rng, n_max=12, m_max=8), _rand_graph(rng, n_max=9)
        for inv in calls:
            _assert_matches_oracle(G if inv == "ec_t" else H, inv)
    assert min(calls.values()) >= 100, calls
    assert min(shrunk["tau_strong"], shrunk["ec_t"]) >= 10, shrunk


# Disjoint unions, whose requirements fall into parts that share no item.
# Before the parts were solved apart, tau_t, tau_strong and ec_t searched a
# union whole, at the cost of the product of its parts' searches: 139,882
# nodes for the tau_t union, 2,791,022 for the tau_strong one and 1,412,953
# for the doubled cubic graph, whose doubled coverage bound rounds to 27
# against an optimum of 28 where each copy alone rounds up to its 14.
UNION_NODES = {"tau_t": 150, "tau_strong": 150, "ec_t": 3}


def test_disjoint_union_nodes():
    G = cubic_graph(SplitMix64(5), 20)
    doubled = graph(40, list(G.edges) + [(u + 20, v + 20) for u, v in G.edges])
    cases = (
        ("tau_t", 36, disjoint_union(*(
            random_hypergraph(3, 30, 25, split_seed(11, c), require_class=True)
            for c in range(4)))),
        ("tau_strong", 45, disjoint_union(*(
            random_hypergraph(4, 24, 22, split_seed(11, c), require_class=True)
            for c in range(4)))),
        ("ec_t", 28, doubled),
    )
    for inv, want, obj in cases:
        got = solve(obj, inv)
        assert got.value == want == len(got.witness), (inv, got.value)
        assert _DEFINITIONS[inv](obj, got.witness)
        assert got.nodes <= UNION_NODES[inv], (inv, got.nodes)


def test_union_solves_its_parts_apart():
    """A disjoint union is solved part by part: its value, its witness and
    its node count are those of its parts solved alone, put side by side,
    for every invariant, and it is infeasible when a part is.  So a union's
    witness does not hang on how a search of the whole would have met its
    parts."""
    rng = random.Random(9090)
    for _ in range(150):
        parts = [_rand_hg(rng, n_max=6, m_max=4)
                 for _ in range(rng.randint(1, 2))]
        parts.append(pendant_hypergraph(rng, rng.choice((2, 3)),
                                        rng.randint(3, 5), rng.randint(2, 4)))
        U = disjoint_union(*parts)
        for inv in _DEFINITIONS:
            whole, alone = U, parts
            if inv == "ec_t":
                whole, alone = two_section(U), [two_section(P) for P in parts]
            try:
                got = [solve(P, inv) for P in alone]
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve(whole, inv)
                continue
            witness, n = [], 0
            for P, res in zip(alone, got):
                witness += [tuple(u + n for u in e) if inv == "ec_t" else e + n
                            for e in res.witness]
                n += P.n
            want = (sum(r.value for r in got), sorted(witness),
                    sum(r.nodes for r in got))
            res = solve(whole, inv)
            assert (res.value, sorted(res.witness), res.nodes) == want, inv


def test_one_item_pass_per_part(monkeypatch):
    """Each part of a `_min_selection` call is reduced by exactly one
    `_thin` call, which sees the part's requirements as given, for all six
    invariants, on single-part inputs and on unions: no requirement is
    dropped, and no loop alternates the item pass with anything else."""
    module = sys.modules["hypertrans.solve"]
    thin, min_selection = module._thin, module._min_selection
    seen = []
    counts = {(inv, many): 0 for inv in _DEFINITIONS for many in (False, True)}
    inv = None

    def thin_spy(reqs, adj, allowed, demand):
        seen.append(reqs)
        return thin(reqs, adj, allowed, demand)

    def min_selection_spy(nitems, reqs, total=False, nb=None):
        seen.clear()
        out = min_selection(nitems, reqs, total, nb)
        parts = [part for part, _ in _parts(reqs)]
        assert seen == parts, inv
        counts[inv, len(parts) > 1] += 1
        return out

    monkeypatch.setattr(module, "_thin", thin_spy)
    monkeypatch.setattr(module, "_min_selection", min_selection_spy)
    rng = random.Random(1919)

    def draw():
        k = rng.choice((2, 3))
        return random_hypergraph(k, k + 2 + rng.randrange(3),
                                 3 + rng.randrange(2), rng.getrandbits(64),
                                 require_class=True)

    for i in range(60):
        H = disjoint_union(draw(), draw()) if i % 2 else draw()
        for inv in _DEFINITIONS:
            solve(two_section(H) if inv == "ec_t" else H, inv)
    assert min(counts.values()) >= 10, counts


def test_paths_take_at_most_two_nodes():
    """On the 2,000-vertex path the root's one item pass leaves a search
    that closes at once: each of the six invariants takes at most 2 nodes,
    ec_t on the path graph.  While the root alternated the item pass with
    dropping implied requirements, it took about n/4 rounds of all-pair
    comparisons there."""
    n = 2000
    P = hypergraph(n, [[i, i + 1] for i in range(n - 1)])
    G = graph(n, [(i, i + 1) for i in range(n - 1)])
    for fn, want in ((tau, 1000), (gamma_t, 1000), (tau_strong, 2000),
                     (tau_t, 1333), (gamma, 667), (ec_t, 1334)):
        obj = G if fn is ec_t else P
        got = fn(obj)
        assert got.value == want == len(got.witness), fn.__name__
        assert _DEFINITIONS[fn.__name__](obj, got.witness)
        assert got.nodes <= 2, (fn.__name__, got.nodes)


def test_sibling_dominance():
    """A pick is skipped when an already-searched sibling lies in every open
    requirement holding it and, under the side constraint, sees every other
    neighbor of it.  In the first two instances items 0 and 1 are twins, in
    the same requirements: tau_strong keeps both (at demand 2 an item goes
    only when two others lie in all its edges), and tau_t keeps both (each
    needs the other as its neighbor).  So after 0's subtree the root skips 1,
    one node fewer than searching it (5 and 3 nodes without the rule).  In
    the graph, dropping the neighbor test loses the optimum (5 for 4)."""
    for obj, inv, value, nodes in (
        (hypergraph(5, [[0, 1, 2], [0, 1, 3], [0, 1, 4], [2, 3, 4]]),
         "tau_strong", 4, 4),
        (hypergraph(7, [[0, 1, 3], [2, 4, 5], [2, 4, 6]]), "tau_t", 4, 2),
        (graph(6, [(0, 2), (0, 4), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)]),
         "ec_t", 4, None),
    ):
        got = solve(obj, inv)
        assert got.value == brute_force_oracle(obj, inv).value == value
        assert _DEFINITIONS[inv](obj, got.witness)
        if nodes is not None:
            assert got.nodes == nodes, (inv, got.nodes)


# Search nodes on fixed populations before the sibling rule, and with it:
# tau on random_hypergraph(3, 60, 50, s, require_class=True), s = 0..9, 2,997
# and 2,018; gamma_t on the family_Fk_star expansions of five 4-uniform
# 6-vertex bases drawn by family_base from random.Random(808), 4,092 and
# 2,042; tau_strong on the population of test_tau_strong_nodes, 7,825 and
# 6,020 (checked there).  The ceilings are the counts with the rule.  The
# gamma_t expansions took 1,314 nodes before the rank-2 cuts and take 5 with
# them, one per solve; the cuts must keep them within 10.
SIBLING_NODES = {"tau": 2_018, "gamma_t": 2_042, "tau_strong": 6_020}
RANK2_CUT_NODES = {"gamma_t": 10}


def test_sibling_dominance_nodes():
    rng = random.Random(808)
    populations = {
        "tau": [(random_hypergraph(3, 60, 50, s, require_class=True), want)
                for s, want in enumerate((15, 15, 16, 15, 17, 17, 16, 16, 17,
                                          17))],
        "gamma_t": [(family_Fk_star(family_base(rng, 4, 6, True), 4)
                     .hypergraph, 12) for _ in range(5)],
    }
    for inv, population in populations.items():
        nodes = 0
        for H, want in population:
            got = solve(H, inv)
            assert got.value == want == len(got.witness)
            assert _DEFINITIONS[inv](H, got.witness)
            nodes += got.nodes
        assert nodes <= SIBLING_NODES[inv], (inv, nodes)
        assert nodes <= RANK2_CUT_NODES.get(inv, nodes), (inv, nodes)


def test_search_depth_adds_no_python_frames():
    """The exact search keeps its path on a stack of its own.  This
    tau_strong optimum has 18 picks, 36 Python frames deep had each pick
    cost two, yet the solve runs within 30 spare frames and gives the same
    result as at the normal limit."""
    H = random_hypergraph(4, 40, 40, split_seed(7, 3), require_class=True)
    want = tau_strong(H)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        got = tau_strong(H)
    finally:
        sys.setrecursionlimit(limit)
    assert (got.value, got.witness, got.nodes) \
        == (want.value, want.witness, want.nodes)


def test_total_dominating_matches_definition():
    """Every vertex has a member of S other than itself in a common edge,
    checked literally against the predicate on random (H, S), dominating or
    not."""
    rng = random.Random(4711)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        H = _rand_hg(rng, n_max=9, m_max=7)
        S = [v for v in range(H.n) if rng.random() < rng.random()]
        want = all(any(v in e and u != v for e in H.edges for u in e
                       if u in S)
                   for v in range(H.n))
        assert is_total_dominating(H, S) == want, (H, S)
        seen[want] += 1
    assert min(seen.values()) >= 200, seen


def test_chain_tau_le_taut_le_taustrong():
    rng = random.Random(77)
    for _ in range(50):
        H = _rand_hg(rng)
        try:
            tt = tau_t(H).value
        except InfeasibleError:
            continue
        assert tau(H).value <= tt <= tau_strong(H).value


def test_branch_and_bound_matches_oracle():
    rng = random.Random(31415)
    for _ in range(60):
        H = _rand_hg(rng, n_max=8, m_max=6)
        for inv in ["tau", "tau_t", "tau_strong", "gamma", "gamma_t"]:
            try:
                got = solve(H, inv).value
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    brute_force_oracle(H, inv)
                continue
            assert got == brute_force_oracle(H, inv).value, (inv, H)
    for _ in range(40):
        G = _rand_graph(rng)
        try:
            got = ec_t(G).value
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                brute_force_oracle(G, "ec_t")
            continue
        r = brute_force_oracle(G, "ec_t")
        assert got == r.value, G
        assert is_total_edge_cover(G, r.witness)


def test_empty_edge_set():
    H = hypergraph(3, [[0, 1]])
    assert tau(hypergraph(2, [[0, 1]])).value == 1
    assert tau_t(H).value == 2
    # no edges at all: every covering invariant that allows it is 0
    E = hypergraph(0, [])
    assert tau(E).value == 0
    assert tau_t(E).value == 0
    assert gamma(E).value == 0
