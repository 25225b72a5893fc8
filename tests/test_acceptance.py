"""Acceptance gate: twelve criteria, one printed verdict line each.

Shared instance pools are built once per module; every criterion prints
`criterion NN PASS/FAIL: ...` straight to the terminal so the gate is
readable in plain pytest output.
"""

import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest

from hypertrans.construct import (
    split_seed,
    strong_transversal_trials,
    tt_2uniform,
    tt_kuniform,
)
from hypertrans.hcore import class_check, hypergraph
from hypertrans.solve import (
    InfeasibleError,
    brute_force_oracle,
    gamma_t,
    is_total_transversal,
    solve,
    tau,
    tau_t,
)
from hypertrans.xform import dual, family_Fk, family_Fk_star, graph, onh, two_section
from hypertrans.xsearch import (
    asymptotic_sweep,
    enumerate_Hk,
    estimate_bk,
    random_hypergraph,
    verify_bounds,
)
from hypertrans.construct import SplitMix64


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _isomorphic(A, B):
    if (A.n, A.m) != (B.n, B.m):
        return False
    target = set(B.edges)
    return any(
        all(tuple(sorted(p[v] for v in e)) in target for e in A.edges)
        for p in itertools.permutations(range(A.n))
    )


# sha256 of the concatenated to_text() of each enumeration stream: pins the
# representatives and their order, not just the class counts
ENUM_DIGESTS = {
    2: "dd6584b8ef69190f0ab54b3c39828b8b1b475ed59853f89f2975d01dd02227c3",
    3: "d594eaba9ec2fe77db73ddf0cbb7040a2a64ae17a3e5f3485ebd9bfa881fcd3e",
}
ENUM_RANDOM = 30   # random denser 3-uniform instances after the enumeration


def _stream_digest(instances):
    text = "".join(H.to_text() for H in instances)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def enum_pool():
    """Criterion 4 instance sets, reused by criterion 9."""
    h2 = list(enumerate_Hk(2, 8, 9, nm_max=12))
    h3 = list(enumerate_Hk(3, 7, 5))
    # denser shapes are out of enumeration reach; cover them randomly
    for i in range(ENUM_RANDOM):
        h3.append(random_hypergraph(3, 7, 6 + i % 4, split_seed(404, i),
                                    require_class=True))
    return h2, h3


@pytest.fixture(scope="module")
def random_pool():
    """Criterion 5 instance sets, reused by criterion 9."""
    pool = {}
    rng = SplitMix64(505)
    for k in (4, 5, 6):
        out = []
        for i in range(1000):
            n = k + 1 + rng.randrange(12 - k)
            m = 2 + rng.randrange(min(5, math.comb(n, k) - 1))
            out.append(random_hypergraph(k, n, m, rng.next_u64(),
                                         require_class=True))
        pool[k] = out
    return pool


def test_c01_exact_small_values(capsys):
    C5 = hypergraph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
    P3 = hypergraph(3, [[0, 1], [1, 2]])
    tau_t(P3)  # warm the path before timing
    times = {}
    for name, H, want in (("C5", C5, 4), ("P3", P3, 2)):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            got = tau_t(H).value
            best = min(best, time.perf_counter() - t0)
        times[name] = (got, want, best)
    ok = all(g == w and t < 1e-3 for g, w, t in times.values())
    _verdict(capsys, 1, ok,
             "exact small values: " + "  ".join(
                 f"tau_t({n})={g} (want {w}, {t * 1e6:.0f}us)"
                 for n, (g, w, t) in times.items()))
    assert ok, times


def test_c02_ratio_supremum_k2(capsys):
    t0 = time.perf_counter()
    est = estimate_bk(2, budget=200, seed=0)
    dt = time.perf_counter() - t0
    P3 = hypergraph(3, [[0, 1], [1, 2]])
    C5 = hypergraph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
    ok = (est.best_ratio == Fraction(2, 5)
          and (_isomorphic(est.witness, P3) or _isomorphic(est.witness, C5))
          and dt < 10.0)
    _verdict(capsys, 2, ok,
             f"k=2 ratio search: best={est.best_ratio} mode={est.mode} "
             f"tested={est.instances_tested} ({dt:.2f}s, cap 10s)")
    assert ok, (est.best_ratio, est.mode, dt)


def test_c03_ratio_supremum_k3(capsys):
    t0 = time.perf_counter()
    est = estimate_bk(3, budget=300, seed=0)
    dt = time.perf_counter() - t0
    pair = hypergraph(4, [[0, 1, 2], [0, 1, 3]])  # two triples sharing two
    ok = (est.best_ratio == Fraction(1, 3)
          and _isomorphic(est.witness, pair)
          and dt < 60.0)
    _verdict(capsys, 3, ok,
             f"k=3 ratio search: best={est.best_ratio} mode={est.mode} "
             f"tested={est.instances_tested} ({dt:.2f}s, cap 60s)")
    assert ok, (est.best_ratio, est.witness.edges, dt)


def test_c04_theorem_suite_enumerated(capsys, enum_pool):
    h2, h3 = enum_pool
    t0 = time.perf_counter()
    bad = []
    for H in h2 + h3:
        rep = verify_bounds(H)
        if not rep.all_hold:
            bad.append((H.edges, [r.as_dict() for r in rep.rows if not r.holds]))
    dt = time.perf_counter() - t0
    enumerated3 = h3[:len(h3) - ENUM_RANDOM]
    streams = {2: _stream_digest(h2), 3: _stream_digest(enumerated3)}
    pinned = streams == ENUM_DIGESTS
    ok = (not bad and dt < 600.0 and pinned
          and (len(h2), len(enumerated3)) == (49, 184))
    _verdict(capsys, 4, ok,
             f"enumerated theorem suite: {len(h2)} two-uniform + "
             f"{len(h3)} three-uniform instances, {len(bad)} violations, "
             f"stream digests {'pinned' if pinned else 'CHANGED'} "
             f"({dt:.1f}s, cap 600s)")
    assert ok, (bad[:3], streams)


def test_c05_theorem_suite_random(capsys, random_pool):
    bad = []
    t0 = time.perf_counter()
    for k, pool in random_pool.items():
        for H in pool:
            rep = verify_bounds(H)
            if not rep.all_hold:
                bad.append((k, H.edges))
    dt = time.perf_counter() - t0
    ok = not bad
    _verdict(capsys, 5, ok,
             f"random theorem suite: 1000 instances per k in 4..6, "
             f"{len(bad)} violations ({dt:.1f}s)")
    assert ok, bad[:3]


def test_c06_domination_transfer_equalities(capsys):
    rng = SplitMix64(606)
    bad = 0
    for i in range(500):
        k = 2 + rng.randrange(3)
        n = k + 1 + rng.randrange(10 - k)
        m = 2 + rng.randrange(min(4, math.comb(n, k) - 1))
        H = random_hypergraph(k, n, m, rng.next_u64(), require_class=True)
        a = gamma_t(H).value
        b = tau(onh(H)).value
        c = gamma_t(two_section(H).to_hypergraph()).value
        if not a == b == c:
            bad += 1
    ok = bad == 0
    _verdict(capsys, 6, ok,
             f"open-neighborhood and 2-section transfers: 500 instances, "
             f"{bad} mismatches")
    assert ok


def _k_regular_graph(m, k, rng):
    # pairing model with rejection of loops and repeats
    while True:
        points = [v for v in range(m) for _ in range(k)]
        rng_list = points[:]
        for i in range(len(rng_list) - 1, 0, -1):
            j = rng.randrange(i + 1)
            rng_list[i], rng_list[j] = rng_list[j], rng_list[i]
        pairs = [(rng_list[2 * i], rng_list[2 * i + 1])
                 for i in range(len(rng_list) // 2)]
        edges = {tuple(sorted(p)) for p in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            return graph(m, sorted(edges))


def test_c07_dual_transfer(capsys):
    rng = SplitMix64(707)
    bad = 0
    for i in range(200):
        k = 3 + (i % 2)
        m = k + 1 + rng.randrange(8 - k)
        if k * m % 2:
            m += 1
        G = _k_regular_graph(m, k, rng)
        # vertex stars: one hyperedge per graph vertex over edge indices
        stars = [[] for _ in range(m)]
        for idx, (u, v) in enumerate(G.edges):
            stars[u].append(idx)
            stars[v].append(idx)
        H = hypergraph(G.m, stars)
        cc = class_check(H)
        assert cc.in_Hk and cc.is_linear and cc.is_r_regular(2)
        if tau_t(H).value != solve(dual(H), "ec_t").value:
            bad += 1
    ok = bad == 0
    _verdict(capsys, 7, ok,
             f"line-structure transfer: 200 linear 2-regular instances, "
             f"{bad} mismatches")
    assert ok


def _random_base(k, want_star, rng):
    while True:
        n = k + 1 + rng.randrange(3)
        m = 2 + rng.randrange(2)
        if m > math.comb(n, k):
            continue
        H = random_hypergraph(k, n, m, rng.next_u64(), require_class=True)
        cc = class_check(H)
        if cc.k != k:
            continue
        if not want_star or cc.in_Hk_star:
            return H


# gamma_t search nodes summed over the 30 criterion-08 instances with
# requirement dominance and the packing bound alone; item dominance and
# component splitting must cut them at least tenfold.  Node counts do not
# depend on the machine.
C08_NODES_BEFORE_REDUCTIONS = 857_529


def test_c08_family_tightness(capsys):
    rng = SplitMix64(808)
    bad = []
    nodes = 0
    for i in range(20):
        k = (2, 3, 4)[i % 3]
        fam = family_Fk(_random_base(k, False, rng), k)
        H = fam.hypergraph
        want = 2 * H.n // (k + 1)
        res = gamma_t(H)
        nodes += res.nodes
        if res.value != want or 2 * H.n % (k + 1):
            bad.append(("Fk", k, res.value, want))
    for i in range(10):
        k = (3, 4)[i % 2]
        fam = family_Fk_star(_random_base(k, True, rng), k)
        H = fam.hypergraph
        want = 2 * H.n // (k + 2)
        res = gamma_t(H)
        nodes += res.nodes
        if res.value != want or 2 * H.n % (k + 2):
            bad.append(("Fk_star", k, res.value, want))
    ok = not bad and 10 * nodes <= C08_NODES_BEFORE_REDUCTIONS
    _verdict(capsys, 8, ok,
             f"family tightness: 20 expansion + 10 star-expansion instances, "
             f"{len(bad)} off-target, {nodes} search nodes "
             f"(at most {C08_NODES_BEFORE_REDUCTIONS // 10})")
    assert ok, (bad, nodes)


def test_c09_construction_guarantees(capsys, enum_pool, random_pool):
    h2, h3 = enum_pool
    bad = []
    t0 = time.perf_counter()
    checked = 0
    for H in h2:
        res = tt_2uniform(H)
        exact = tau_t(H).value
        if not (is_total_transversal(H, res.set)
                and exact <= res.size <= res.guarantee):
            bad.append(("tt2", H.edges))
        checked += 1
    for H in h3 + [H for pool in random_pool.values() for H in pool]:
        res = tt_kuniform(H)
        exact = tau_t(H).value
        if not (is_total_transversal(H, res.set)
                and exact <= res.size <= res.guarantee):
            bad.append(("ttk", H.edges))
        checked += 1
    dt = time.perf_counter() - t0
    ok = not bad
    _verdict(capsys, 9, ok,
             f"construction guarantees: {checked} instances, valid and "
             f"between exact value and bound, {len(bad)} failures ({dt:.1f}s)")
    assert ok, bad[:3]


def test_c10_randomized_strong_transversal(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for k, size, seed in ((20, 400, 1001), (50, 1000, 1002)):
        H = random_hypergraph(k, size, size, seed, require_class=True)
        assert H.n == size and H.m == size
        rep = strong_transversal_trials(H, 2.0, 2000, split_seed(seed, 1))
        drift = abs(rep.mean_x1 - rep.p * H.n)
        good = (rep.all_valid and rep.mean_size <= rep.bound
                and drift <= 3 * rep.se_x1)
        ok = ok and good
        details.append(
            f"k={k}: mean={rep.mean_size:.1f}<=bound={rep.bound:.1f} "
            f"x1 drift {drift / rep.se_x1 if rep.se_x1 else 0:.2f} se"
        )
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    _verdict(capsys, 10, ok,
             "randomized strong transversal: " + "; ".join(details)
             + f" ({dt:.1f}s, cap 300s)")
    assert ok, details


def test_c11_desk_scale_decay_bracket(capsys):
    rows = asymptotic_sweep([10, 20, 50], c=2.0, trials=200, seed=17)
    bad = []
    for r in rows:
        ref = math.log(r.k) / r.k
        best = float(r.best_ratio)
        if not (r.mc_valid
                and best <= r.upper_per_nm
                and ref / 3 <= r.upper_per_nm <= 3 * ref
                and ref / 3 <= best <= 3 * ref):
            bad.append(r.k)
    ok = not bad
    _verdict(capsys, 11, ok,
             "decay bracketing at k=10,20,50: "
             + "; ".join(f"k={r.k} upper={r.upper_per_nm:.3f} "
                         f"best={float(r.best_ratio):.3f} "
                         f"ref={r.reference:.3f}" for r in rows))
    assert ok, bad


def test_c12_oracle_equivalence(capsys):
    rng = SplitMix64(1212)
    t0 = time.perf_counter()
    disagreements = 0
    invariants = ("tau", "tau_t", "tau_strong", "gamma", "gamma_t")
    for i in range(500):
        k = 2 + rng.randrange(3)
        n = k + 1 + rng.randrange(9 - k)
        m = 2 + rng.randrange(min(4, math.comb(n, k) - 1))
        H = random_hypergraph(k, n, m, rng.next_u64(),
                              require_class=bool(i % 2))
        for inv in invariants:
            try:
                a = solve(H, inv).value
            except InfeasibleError:
                a = None
            try:
                b = brute_force_oracle(H, inv).value
            except InfeasibleError:
                b = None
            if a != b:
                disagreements += 1
    for i in range(500):
        n = 2 + rng.randrange(7)
        pool = list(itertools.combinations(range(n), 2))
        m = min(1 + rng.randrange(12), len(pool))
        G = graph(n, sorted(pool[j] for j in rng.sample(len(pool), m)))
        try:
            a = solve(G, "ec_t").value
        except InfeasibleError:
            a = None
        try:
            b = brute_force_oracle(G, "ec_t").value
        except InfeasibleError:
            b = None
        if a != b:
            disagreements += 1
    dt = time.perf_counter() - t0
    ok = disagreements == 0
    _verdict(capsys, 12, ok,
             f"solver vs exhaustive oracle: 500 set systems x 5 invariants "
             f"+ 500 graphs, {disagreements} disagreements ({dt:.1f}s)")
    assert ok
