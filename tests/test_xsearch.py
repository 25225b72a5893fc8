"""Canonical forms, enumeration, ratio search, theorem harness, sweep."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from hypertrans import xsearch
from hypertrans.hcore import Hypergraph, class_check, degree_profile, hypergraph
from hypertrans.solve import tau_t
from hypertrans.xform import family_Fk, onh
from hypertrans.xsearch import (
    asymptotic_sweep,
    canonical_form,
    canonical_key,
    enumerate_Hk,
    estimate_bk,
    is_canonical,
    random_hypergraph,
    verify_bounds,
)


def invariant_signature(H: Hypergraph) -> tuple:
    """Cheap isomorphism invariant: order, size, degree and overlap profiles.
    Unequal signatures prove non-isomorphism; equal ones decide nothing."""
    masks = H.edge_masks()
    overlaps = sorted(
        (masks[i] & masks[j]).bit_count()
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
    )
    return (H.n, H.m, tuple(sorted(H.degrees())), tuple(overlaps))


def _relabel(H, perm):
    return hypergraph(H.n, [[perm[v] for v in e] for e in H.edges])


def _isomorphic(A, B):
    # brute force on purpose: independent of canonical_key
    if (A.n, A.m) != (B.n, B.m):
        return False
    if invariant_signature(A) != invariant_signature(B):
        return False
    target = set(B.edges)
    for perm in itertools.permutations(range(A.n)):
        if all(tuple(sorted(perm[v] for v in e)) in target for e in A.edges):
            return True
    return False


def _labeled_instances(k, n, m_max):
    """Every labeled instance on exactly n vertices: no isolated vertex or
    edge, at least two edges, at most m_max."""
    pool = list(itertools.combinations(range(n), k))
    out = []
    for m in range(2, m_max + 1):
        for edges in itertools.combinations(pool, m):
            covered = {v for e in edges for v in e}
            if len(covered) != n:
                continue
            sets = [set(e) for e in edges]
            if any(
                not any(a & b for j, b in enumerate(sets) if i != j)
                for i, a in enumerate(sets)
            ):
                continue
            out.append(Hypergraph(n, tuple(edges)))
    return out


def _lex_min_oracle(H):
    # brute force on purpose: the definition of the canonical key
    return min(
        tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in H.edges))
        for perm in itertools.permutations(range(H.n))
    )


def _gate_leaves(monkeypatch, k, n_max, m_max):
    """Every edge list that reaches the is_canonical gate of the enumeration,
    prefixes and full lists, canonical or not."""
    leaves = []
    gate = xsearch.is_canonical

    def record(H):
        leaves.append(H)
        return gate(H)

    monkeypatch.setattr(xsearch, "is_canonical", record)
    list(enumerate_Hk(k, n_max, m_max))
    monkeypatch.setattr(xsearch, "is_canonical", gate)
    return leaves


def _iso_class_count(instances):
    reps = []
    for H in instances:
        if not any(_isomorphic(H, R) for R in reps):
            reps.append(H)
    return len(reps)


# ---------------------------------------------------------------- canonical


def test_canonical_invariant_under_relabeling():
    rng = random.Random(40)
    for _ in range(30):
        k = rng.choice([2, 3])
        H = random_hypergraph(k, rng.randint(k + 1, 6), rng.randint(2, 4),
                              rng.getrandbits(64), require_class=True)
        key = canonical_key(H)
        perm = list(range(H.n))
        rng.shuffle(perm)
        assert canonical_key(_relabel(H, perm)) == key
        C = canonical_form(H)
        assert is_canonical(C)
        assert canonical_form(C).edges == C.edges
        assert C.edges[0] == tuple(range(len(C.edges[0])))
        # relabeling preserves the invariant being searched over
        assert tau_t(C).value == tau_t(H).value


def test_canonical_matches_oracle_on_gate_leaves(monkeypatch):
    rejected = 0
    for k, n_max, m_max in [(2, 5, 4), (3, 5, 3), (2, 6, 5), (3, 6, 3)]:
        for H in _gate_leaves(monkeypatch, k, n_max, m_max):
            want = _lex_min_oracle(H)
            assert canonical_key(H) == want, H.edges
            assert is_canonical(H) == (want == H.edges), H.edges
            rejected += want != H.edges
    assert rejected > 0  # the gate saw non-canonical leaves too


def test_canonical_matches_oracle_on_relabelings():
    rng = random.Random(2024)
    for _ in range(15):
        k = rng.choice([2, 3])
        n = rng.randint(k + 1, 7)
        H = random_hypergraph(k, n, rng.randint(2, min(6, math.comb(n, k))),
                              rng.getrandbits(64), require_class=True)
        want = _lex_min_oracle(H)
        for _ in range(3):
            perm = list(range(H.n))
            rng.shuffle(perm)
            R = _relabel(H, perm)
            assert canonical_key(R) == want
            assert is_canonical(R) == (R.edges == want)


def test_canonical_matches_oracle_on_mixed_sizes():
    rng = random.Random(5)
    found = []
    for _ in range(40):
        H = random_hypergraph(2, 6, rng.randint(3, 6), rng.getrandbits(64),
                              require_class=True)
        N = onh(H)
        if len({len(e) for e in N.edges}) > 1 and min(map(len, N.edges)) == 1:
            found.append(N)
    found.append(hypergraph(6, [[0], [1, 2], [0, 3, 4], [2, 5], [1, 3, 4, 5]],
                            allow_singletons=True))
    assert len(found) >= 5  # several singleton-bearing onh outputs
    for N in found:
        want = _lex_min_oracle(N)
        perm = list(range(N.n))
        rng.shuffle(perm)
        for G in (N, hypergraph(N.n, [[perm[v] for v in e] for e in N.edges],
                                allow_singletons=True)):
            assert canonical_key(G) == want
            assert is_canonical(G) == (G.edges == want)


def test_signature_separates_and_respects_iso():
    P3 = hypergraph(3, [[0, 1], [1, 2]])
    K3 = hypergraph(3, [[0, 1], [0, 2], [1, 2]])
    assert invariant_signature(P3) != invariant_signature(K3)
    assert invariant_signature(P3) == invariant_signature(
        hypergraph(3, [[2, 1], [0, 2]])
    )


# -------------------------------------------------------------- enumeration


def test_enumerate_two_triples_single_class():
    got = list(enumerate_Hk(3, 4, 2))
    assert len(got) == 1
    assert got[0].edges == ((0, 1, 2), (0, 1, 3))


def test_enumerate_smallest_graphs():
    got = list(enumerate_Hk(2, 3, 3))
    assert [H.edges for H in got] == [
        ((0, 1), (0, 2)),                   # path
        ((0, 1), (0, 2), (1, 2)),           # triangle
    ]


def test_enumerate_deterministic():
    a = list(enumerate_Hk(2, 5, 4))
    b = list(enumerate_Hk(2, 5, 4))
    assert [H.edges for H in a] == [H.edges for H in b]
    keys = [(H.n, H.m) for H in a]
    assert keys == sorted(keys)  # streamed smallest shapes first


def test_enumerate_matches_brute_force_classes():
    # class counts per (n, m) against brute-force isomorphism partitioning
    for k, n, m_max in [(2, 3, 3), (2, 4, 6), (2, 5, 3), (3, 4, 3), (3, 5, 3)]:
        ours = [H for H in enumerate_Hk(k, n, m_max) if H.n == n]
        for m in range(2, m_max + 1):
            mine = [H for H in ours if H.m == m]
            ref = _iso_class_count(
                [H for H in _labeled_instances(k, n, m_max) if H.m == m]
            )
            assert len(mine) == ref, (k, n, m)
            assert all(is_canonical(H) for H in mine)
            for A, B in itertools.combinations(mine, 2):
                assert not _isomorphic(A, B)


# sha256 of the concatenated to_text() of each stream, taken while the gate
# still ran at full edge lists only: pins representatives and their order on
# shapes beyond criterion 04's
ENUM_STREAM_DIGESTS = {
    (3, 8, 5): "5cbf17af2d2691c1fa830696064cfbd2695ef3f3aaff4189d1616e361702960e",
    (4, 8, 4): "a758af23674ae946a78f34f5bad1f467cd8a6f8f1ce0056034c1ffb2f6cb66ca",
}


def test_enumerate_stream_digests():
    for (k, n_max, m_max), want in ENUM_STREAM_DIGESTS.items():
        text = "".join(H.to_text() for H in enumerate_Hk(k, n_max, m_max))
        assert hashlib.sha256(text.encode()).hexdigest() == want, (k, n_max, m_max)


def test_every_prefix_of_a_class_is_canonical():
    # the property that lets the enumeration prune non-canonical prefixes:
    # each prefix of an emitted list uses vertices 0..t-1 and is lex-min
    # among the relabelings of those t vertices
    for k, n_max, m_max in [(2, 6, 6), (3, 6, 5), (4, 6, 4)]:
        for H in enumerate_Hk(k, n_max, m_max):
            for i in range(1, H.m + 1):
                prefix = H.edges[:i]
                t = max(e[-1] for e in prefix) + 1
                assert {v for e in prefix for v in e} == set(range(t))
                assert _lex_min_oracle(Hypergraph(t, prefix)) == prefix, \
                    (H.edges, i)


def test_enumerate_gate_calls(monkeypatch):
    # a ceiling, like the solver's node ceilings: gating every prefix once
    # per call takes 596 lex-min searches here, gating full lists 6,208
    calls = 0
    search = xsearch._lex_min

    def counted(H, stop_below):
        nonlocal calls
        calls += 1
        return search(H, stop_below)

    monkeypatch.setattr(xsearch, "_lex_min", counted)
    assert sum(1 for _ in enumerate_Hk(4, 8, 4)) == 112
    assert calls <= 1000


def test_enumerate_rejects_bad_k():
    with pytest.raises(ValueError):
        list(enumerate_Hk(1, 4, 3))
    # at the call, before any instance is pulled
    with pytest.raises(ValueError, match="k must be at least 2, got 1"):
        enumerate_Hk(1, 5, 3)


# ------------------------------------------------------------ random draws


def test_random_hypergraph_reproducible():
    a = random_hypergraph(3, 8, 5, seed=99)
    b = random_hypergraph(3, 8, 5, seed=99)
    assert a.edges == b.edges and a.n == b.n
    c = random_hypergraph(3, 8, 5, seed=100)
    assert a.edges != c.edges  # 56 choose 5 space, collision would be a bug


def test_random_hypergraph_class_repair():
    for s in range(10):
        H = random_hypergraph(3, 7, 3, seed=s, require_class=True)
        cc = class_check(H)
        assert cc.in_Hk and cc.k == 3
        assert H.n <= 7  # isolated vertices repaired away, never added
    loose = random_hypergraph(2, 12, 2, seed=4)
    assert loose.n == 12  # without the flag the order is kept as asked


def test_random_hypergraph_domain():
    with pytest.raises(ValueError, match="distinct"):
        random_hypergraph(3, 4, 5, seed=1)  # comb(4,3) = 4 < 5
    with pytest.raises(ValueError):
        random_hypergraph(3, 8, 0, seed=1)


# ------------------------------------------------------------- ratio search


def test_estimate_b2_hits_known_supremum():
    est = estimate_bk(2, budget=120, seed=7)
    assert est.best_ratio == Fraction(2, 5)
    assert est.mode == "exhaustive"
    # earliest witness is the 3-vertex path
    assert _isomorphic(est.witness, hypergraph(3, [[0, 1], [1, 2]]))
    assert est.instances_tested <= 120


def test_estimate_b3_hits_known_supremum():
    est = estimate_bk(3, budget=200, seed=7)
    assert est.best_ratio == Fraction(1, 3)
    assert est.mode == "exhaustive"
    assert class_check(est.witness).in_Hk


def test_estimate_monotone_in_budget():
    vals = [estimate_bk(3, budget=b, seed=5).best_ratio
            for b in (1, 2, 4, 8, 16)]
    assert all(x <= y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == Fraction(1, 3)


def test_estimate_random_mode():
    # n_max below k+1 empties the enumeration, leaving random draws only
    est = estimate_bk(3, budget=10, seed=3, n_max=3, m_max=4)
    assert est.mode == "random"
    assert est.best_ratio == Fraction(1, 3)  # two triples of a 4-set
    assert est.instances_tested == 10


def test_estimate_empty_budget():
    with pytest.raises(ValueError, match="budget"):
        estimate_bk(3, budget=0, seed=1, n_max=3, m_max=2)
    # an unsound k is reported before the budget, at any budget
    for budget in (0, 5):
        with pytest.raises(ValueError, match="k must be at least 2"):
            estimate_bk(1, budget=budget, seed=1)
    with pytest.raises(ValueError) as err:
        estimate_bk(1, 0, 1)
    assert str(err.value) == "k must be at least 2, got 1"


# ---------------------------------------------------------- theorem harness


def test_verify_bounds_cycle_tight():
    C5 = hypergraph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
    rep = verify_bounds(C5)
    assert rep.all_hold
    rows = {r.theorem: r for r in rep.rows}
    assert rows["T_b2"].lhs == 4 and rows["T_b2"].rhs == 4
    assert rows["T_b2"].slack == 0
    assert rows["T_main2"].lhs == 3  # total domination of the 5-cycle
    assert rows["chain_tau"].holds and rows["chain_strong"].holds
    assert {"O2_n", "O2_m", "O2_maxdeg", "O2_n1"} <= rows.keys()
    skipped = dict(rep.skipped)
    for tid in ("T_k3", "T_k4", "T_k5", "T_main3", "T_main1A", "T_main1B"):
        assert tid in skipped and skipped[tid]
    assert len(rep.instance_id) == 12


def test_verify_bounds_expansion_tight():
    base = hypergraph(4, [[0, 1, 2], [1, 2, 3]])
    H = family_Fk(base, 3).hypergraph
    rep = verify_bounds(H)
    assert rep.all_hold
    rows = {r.theorem: r for r in rep.rows}
    assert rows["T_main2"].slack == 0 and rows["T_main2"].lhs == 8
    assert rows["T_main1A"].slack == 0
    assert rows["T_main1A"].basis == "exact"
    assert rows["T_main2"].lhs_provenance == "solver"
    assert rows["T_main2"].rhs_provenance == "formula"


def test_verify_bounds_star_class_rows():
    H = hypergraph(8, [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7], [0, 1, 6, 7]])
    cc = class_check(H)
    assert cc.in_Hk_star and cc.k == 4
    rep = verify_bounds(H)
    assert rep.all_hold
    rows = {r.theorem: r for r in rep.rows}
    assert rows["T_main3"].lhs == 2 and rows["T_main3"].rhs == Fraction(8, 3)
    assert rows["T_main1B"].holds and rows["T_main1B"].basis == "exact"
    assert "T_k4" in rows and "T_k5" not in rows


def test_verify_bounds_wide_instance():
    H = random_hypergraph(5, 8, 4, seed=21, require_class=True)
    rep = verify_bounds(H)
    assert rep.all_hold
    names = {r.theorem for r in rep.rows}
    assert {"T_k3", "T_k4", "T_k5", "T_main2", "T_main1A"} <= names
    row = {r.theorem: r for r in rep.rows}["T_main1A"]
    assert row.basis == "bound-based"  # best constant at k-1 = 4 is a bound
    for tid, reason in rep.skipped:
        assert isinstance(reason, str) and reason


def test_verify_bounds_random_class_members():
    rng = random.Random(77)
    for _ in range(20):
        k = rng.choice([2, 3, 4])
        H = random_hypergraph(k, rng.randint(k + 1, 8), rng.randint(2, 5),
                              rng.getrandbits(64), require_class=True)
        rep = verify_bounds(H)
        assert rep.all_hold, (H.edges, [r.as_dict() for r in rep.rows])


_REASONS = {
    "T_b2": "requires a sound 2-uniform instance",
    "T_k3": "requires a sound instance with k >= 3",
    "T_k4": "requires a sound instance with k >= 4",
    "T_k5": "requires a sound instance with k >= 5",
    "T_main2": "requires a sound instance with k in 2..6",
    "T_main3": "requires a star-class instance with k >= 4",
    "T_main1A": "requires a sound instance with k >= 3",
    "T_main1B": "requires a star-class instance with k >= 4",
    "O2": "requires a sound uniform instance",
}
_FLOOR = [(t, "exact", "formula", "formula")
          for t in ("O2_n", "O2_m", "O2_maxdeg", "O2_n1")]
_CHAIN = [("chain_tau", "exact", "solver", "solver"),
          ("chain_strong", "exact", "solver", "solver")]


def _near_pair(k):
    """Two k-edges sharing k - 1 vertices: sound, and for k >= 3 outside
    the star class."""
    return hypergraph(k + 1, [range(k), range(1, k + 1)])


# (instance, in_Hk, in_Hk_star, the theorem rows as (theorem, basis), the
# skipped theorems); T_main1A's and T_main1B's basis is that of the best
# constant at k - 1, exact for k - 1 in {2, 3} and bound-based beyond
_ROW_CASES = [
    (_near_pair(2), True, False,
     [("T_b2", "exact"), ("T_main2", "exact")],
     ["T_k3", "T_k4", "T_k5", "T_main3", "T_main1A", "T_main1B"]),
    (_near_pair(3), True, False,
     [("T_k3", "exact"), ("T_main2", "exact"), ("T_main1A", "exact")],
     ["T_b2", "T_k4", "T_k5", "T_main3", "T_main1B"]),
    (_near_pair(4), True, False,
     [("T_k3", "exact"), ("T_k4", "exact"), ("T_main2", "exact"),
      ("T_main1A", "exact")],
     ["T_b2", "T_k5", "T_main3", "T_main1B"]),
    (_near_pair(5), True, False,
     [("T_k3", "exact"), ("T_k4", "exact"), ("T_k5", "exact"),
      ("T_main2", "exact"), ("T_main1A", "bound-based")],
     ["T_b2", "T_main3", "T_main1B"]),
    (_near_pair(6), True, False,
     [("T_k3", "exact"), ("T_k4", "exact"), ("T_k5", "exact"),
      ("T_main2", "exact"), ("T_main1A", "bound-based")],
     ["T_b2", "T_main3", "T_main1B"]),
    (_near_pair(7), True, False,
     [("T_k3", "exact"), ("T_k4", "exact"), ("T_k5", "exact"),
      ("T_main1A", "bound-based")],
     ["T_b2", "T_main2", "T_main3", "T_main1B"]),
    (hypergraph(6, [[0, 1, 2, 3], [2, 3, 4, 5]]), True, True,
     [("T_k3", "exact"), ("T_k4", "exact"), ("T_main2", "exact"),
      ("T_main3", "exact"), ("T_main1A", "exact"), ("T_main1B", "exact")],
     ["T_b2", "T_k5"]),
    (hypergraph(7, [[0, 1, 2, 3, 4], [2, 3, 4, 5, 6]]), True, True,
     [("T_k3", "exact"), ("T_k4", "exact"), ("T_k5", "exact"),
      ("T_main2", "exact"), ("T_main3", "exact"),
      ("T_main1A", "bound-based"), ("T_main1B", "bound-based")],
     ["T_b2"]),
    # an isolated edge {3, 4} puts this graph out of the class
    (hypergraph(5, [[0, 1], [1, 2], [3, 4]]), False, False, [],
     ["T_b2", "T_k3", "T_k4", "T_k5", "T_main2", "T_main3", "T_main1A",
      "T_main1B", "O2"]),
]


@pytest.mark.parametrize("case", range(len(_ROW_CASES)))
def test_verify_bounds_rows_follow_preconditions(case):
    """The rows, in order, with their basis and provenance, and the skipped
    theorems with their reasons, for sound instances at k = 2..7, star-class
    ones at k = 4 and 5, and one outside the class."""
    H, sound, star, theorem_rows, skipped = _ROW_CASES[case]
    cc = class_check(H)
    assert (cc.in_Hk, cc.in_Hk_star) == (sound, star)
    rep = verify_bounds(H)
    want = [(t, basis, "solver", "formula") for t, basis in theorem_rows]
    want += (_FLOOR if sound else []) + _CHAIN
    assert [(r.theorem, r.basis, r.lhs_provenance, r.rhs_provenance)
            for r in rep.rows] == want
    assert list(rep.skipped) == [(t, _REASONS[t]) for t in skipped]


def test_class_check_n1_matches_degree_profile():
    rng = random.Random(2324)
    for _ in range(300):
        k = rng.randint(2, 5)
        n = rng.randint(k, 12)
        m = rng.randint(1, min(math.comb(n, k), 3 * n))
        sound = m >= 2 and n > k and rng.random() < 0.5
        H = random_hypergraph(k, n, m, rng.getrandbits(64),
                              require_class=sound)
        assert class_check(H).n1 == degree_profile(H).n1


# ------------------------------------------------------------------- sweep


def test_sweep_brackets_logarithmic_decay():
    rows = asymptotic_sweep([5, 8], c=2.0, trials=60, seed=11)
    assert [r.k for r in rows] == [5, 8]
    for r in rows:
        ref = math.log(r.k) / r.k
        assert r.mc_valid
        assert r.mc_mean_per_nm <= r.upper_per_nm + 1e-12
        assert float(r.best_ratio) <= r.upper_per_nm
        assert r.upper_per_nm <= 3.0 * ref
        assert float(r.best_ratio) >= ref / 3.0
        assert r.best_shape[0] >= r.k + 1
        d = r.as_dict()
        assert d["k"] == r.k and isinstance(d["best_ratio"], str)


def test_sweep_deterministic():
    a = asymptotic_sweep([4], c=2.0, trials=40, seed=3)
    b = asymptotic_sweep([4], c=2.0, trials=40, seed=3)
    assert a == b
