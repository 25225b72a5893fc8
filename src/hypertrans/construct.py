"""Constructive algorithms with proven size guarantees.

Deterministic reductions building total transversals within 2(n+m)/5 (graphs)
and (n+m)/3 (k >= 3), a P3-packing based total edge cover for graphs, and the
randomized strong transversal with its closed-form expectation bound.  Every
tie is broken toward the lowest index so runs are reproducible, and every
returned set is re-validated against the definitional predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hcore import (
    Hypergraph, bit_indices, class_check, components, delete_vertices, induced,
    neighborhood, shared_vertices,
)
from .solve import (
    is_strong_transversal,
    is_total_edge_cover,
    is_total_transversal,
)
from .xform import Graph, dual, two_section

# splitmix64: the per-trial RNG.  64-bit integer arithmetic only, so streams
# are identical on every platform, and seeds split by index without overlap
# in practice (distinct golden-ratio offsets).

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def split_seed(seed: int, index: int) -> int:
    """Derive an independent child seed for a numbered subtask."""
    return _mix((seed + _GOLDEN * (index + 1)) & _M64)


class SplitMix64:
    """Seedable counter-based generator."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _M64
        return _mix(self.state)

    def random(self) -> float:
        return self.next_u64() / 2**64

    def randrange(self, n: int) -> int:
        """Uniform in 0..n-1 by rejection: draws from the top 2**64 % n
        values are discarded.  One draw spans at most 2**64 values, so a
        wider range raises ValueError instead of rejecting every draw."""
        if n <= 0:
            raise ValueError("empty range")
        if n > 2**64:
            raise ValueError(f"range of {n} values exceeds 2**64")
        limit = 2**64 - (2**64 % n)
        state = self.state
        while True:             # next_u64, on a local state
            state = (state + _GOLDEN) & _M64
            z = _mix(state)
            if z < limit:
                self.state = state
                return z % n

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct values from 0..n-1 in partial Fisher-Yates order.

        The shuffled list is kept sparse: moved maps each position a swap
        has touched to the value now there, and every other position holds
        its own index, so a draw costs O(k) whatever n is."""
        if not 0 <= k <= n:
            raise ValueError("sample larger than population or negative")
        moved: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return out


@dataclass(frozen=True)
class ConstructionResult:
    set: tuple                  # vertices, or (u, v) edge pairs
    guarantee: Fraction
    trace: tuple                # (rule id, picked, repaired) triples

    @property
    def size(self) -> int:
        return len(self.set)


@dataclass(frozen=True)
class TrialReport:
    k: int
    c: float
    trials: int
    n: int
    m: int
    p: float
    mean_size: float
    std_err: float
    bound: float
    all_valid: bool
    mean_x1: float
    se_x1: float
    expect_x1: float            # p * n, the exact expectation
    mean_x2: float
    cap_x2: float               # (2/(ck)) * m
    mean_x3: float
    cap_x3: float               # ((ln k + ln c)/(c(k-1))) * m

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def _components_with_maps(H: Hypergraph, back):
    out = []
    for block in components(H):
        sub, local = induced(H, block)
        out.append((sub, tuple(back[v] for v in local)))
    return out


def _covering_adjacent_pair(H: Hypergraph):
    """Lowest adjacent pair {x, y} hitting every edge, or None."""
    masks = H.edge_masks()
    for x, y in two_section(H).edges:
        pair = (1 << x) | (1 << y)
        if all(mask & pair for mask in masks):
            return x, y
    return None


def _repair_isolated(H: Hypergraph, X: set):
    """After X leaves, fix each newly isolated edge with one vertex of
    original degree >= 2 (lowest index); returns all vertices to delete and
    the repair vertices."""
    degs = H.degrees()
    keep = [(e, a) for e, a in zip(H.edges, H.edge_masks())
            if not X.intersection(e)]
    # a kept edge meets no other kept edge exactly when none of its
    # vertices lies in another kept edge
    shared = shared_vertices([a for _, a in keep])
    repaired = []
    doomed = set(X)
    for e, a in keep:
        if a & shared:
            continue
        repaired.append(next(v for v in e if degs[v] >= 2))
        doomed.update(e)
    return doomed, repaired


def _reduce(H: Hypergraph, rule, guarantee: Fraction) -> ConstructionResult:
    """The reduction scheme behind both size bounds, run per component.

    A component with an adjacent pair hitting every edge takes that pair.
    Otherwise rule(C) names its step and the vertices it picks, and says
    whether they finish C.  If not, they leave with every edge they meet,
    each edge this isolates is repaired, and the rest splits into its
    components again.  The trace holds (rule id, picked, repaired) in
    original indices, and the union is re-checked as a total transversal.
    """
    T: list[int] = []
    trace: list[tuple] = []
    work = _components_with_maps(H, tuple(range(H.n)))
    while work:
        C, back = work.pop()
        if C.m == 0:
            continue
        pair = _covering_adjacent_pair(C)
        name, picked, final = ("pair", pair, True) if pair else rule(C)
        T += [back[v] for v in picked]
        if final:
            trace.append((name, tuple(sorted(back[v] for v in picked)), ()))
            continue
        doomed, repaired = _repair_isolated(C, set(picked))
        T += [back[v] for v in repaired]
        trace.append((name, tuple(back[v] for v in picked),
                      tuple(back[v] for v in repaired)))
        rest = delete_vertices(C, doomed)
        work += _components_with_maps(rest, tuple(back[v] for v in rest.labels))
    witness = tuple(sorted(T))
    if not is_total_transversal(H, witness):
        raise RuntimeError(f"construction produced an invalid set {witness}")
    return ConstructionResult(witness, guarantee, tuple(trace))


def tt_2uniform(H: Hypergraph) -> ConstructionResult:
    """Total transversal of a graph-like instance, at most 2(n+m)/5 vertices.

    Per component: take an adjacent dominating-pair base case when one
    exists, otherwise remove a max-degree vertex x with a neighbor y still
    covered without x, repairing any edge this isolates.
    """
    cc = class_check(H)
    if not (cc.in_Hk and cc.k == 2):
        raise ValueError("input must be 2-uniform with every component sound")
    return _reduce(H, _xy_rule, Fraction(2 * (H.n + H.m), 5))


def _xy_rule(C: Hypergraph):
    """A max-degree x (the lowest on ties) and its lowest neighbor y that is
    still covered once x leaves."""
    degs = C.degrees()
    x = max(range(C.n), key=lambda v: (degs[v], -v))
    y = min(v for v in neighborhood(C, x) if degs[v] >= 2)
    return "xy", (x, y), False


def tt_kuniform(H: Hypergraph) -> ConstructionResult:
    """Total transversal within (n+m)/3 for uniform size k >= 3.

    Reduction rules per component, first match fires: a covering adjacent
    pair; a max-degree >= 3 step; a degree-1 step; an overlapping-edge step;
    then the remaining 2-regular linear core goes through its dual (spanning
    tree for k >= 4, packed edge-cover forest for k = 3).
    """
    cc = class_check(H)
    if not cc.in_Hk or cc.k < 3:
        raise ValueError("input must be a sound uniform instance with k >= 3")
    return _reduce(H, _k_rule, Fraction(H.n + H.m, 3))


def _k_rule(C: Hypergraph):
    """The first matching reduction after the covering pair, on connected C;
    the terminal dual constructions finish C."""
    degs = C.degrees()
    if max(degs) >= 3:
        x = max(range(C.n), key=lambda v: (degs[v], -v))
        nx = neighborhood(C, x)
        y = min(
            v for e in C.edges if x not in e for v in e if v in nx
        )
        return "maxdeg", (x, y), False
    ones = [v for v in range(C.n) if degs[v] == 1]
    if ones:
        v1 = ones[0]
        e1 = next(i for i, e in enumerate(C.edges) if v1 in e)
        e2 = next(
            i for i, e in enumerate(C.edges)
            if i != e1 and set(e) & set(C.edges[e1])
        )
        v2 = min(set(C.edges[e1]) & set(C.edges[e2]))
        union12 = set(C.edges[e1]) | set(C.edges[e2])
        e3 = next(
            i for i, e in enumerate(C.edges)
            if i not in (e1, e2) and set(e) & union12
        )
        v3 = min(set(C.edges[e3]) & union12)
        return "deg1", (v2, v3), False
    masks = C.edge_masks()
    for i in range(C.m):
        for j in range(i + 1, C.m):
            if (masks[i] & masks[j]).bit_count() >= 2:
                u = min(set(C.edges[i]) & set(C.edges[j]))
                v = min(set(C.edges[i]) - set(C.edges[j]))
                return "overlap", (u, v), False
    # terminal: 2-regular and linear; go through the dual graph
    G = dual(C)
    if len(C.edges[0]) >= 4:
        return "tree", _spanning_tree_labels(G), True
    lookup = {e: lab for e, lab in zip(G.edges, G.edge_labels)}
    return "forest", [lookup[e] for e in total_edge_cover_forest(G).set], True


def _spanning_tree_labels(G: Graph) -> list[int]:
    """Labels (originating hypergraph vertices) of one BFS tree's edges."""
    nbr: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    for idx, (u, v) in enumerate(G.edges):
        nbr[u].append((v, idx))
        nbr[v].append((u, idx))
    seen = [False] * G.n
    seen[0] = True
    queue = [0]
    chosen = []
    while queue:
        u = queue.pop(0)
        for v, idx in nbr[u]:
            if not seen[v]:
                seen[v] = True
                chosen.append(G.edge_labels[idx])
                queue.append(v)
    if not all(seen):
        raise ValueError("dual graph is not connected")
    return chosen


def p3_packing(G: Graph, mode: str = "greedy", cap: int = 16):
    """Vertex-disjoint 3-vertex paths (a, center, b).

    exact mode maximizes the count by a memoized search over vertex masks
    (n <= cap): a mask's packing leaves its lowest vertex v out unless a
    path through v gives strictly more paths, and then takes the first path
    through v, in `options` order, that gives the most.  greedy scans
    centers ascending and is maximal but not always maximum.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    nbr = G.neighbor_masks()
    if mode == "greedy":
        used = 0
        out = []
        for c in range(G.n):
            if used >> c & 1:
                continue
            free = nbr[c] & ~used & ~(1 << c)
            if free.bit_count() >= 2:
                a = (free & -free).bit_length() - 1
                free ^= 1 << a
                b = (free & -free).bit_length() - 1
                out.append((a, c, b))
                used |= (1 << a) | (1 << b) | (1 << c)
        return out
    if G.n > cap:
        raise ValueError(f"{G.n} vertices exceeds the exact-mode cap {cap}")

    memo: dict[int, tuple] = {}

    def options(v: int, mask: int):
        # P3s through v inside mask, canonical order: v as endpoint, then center
        for c in bit_indices(nbr[v] & mask):
            for b in bit_indices(nbr[c] & mask & ~(1 << v)):
                yield (v, c, b) if v < b else (b, c, v)
        ends = list(bit_indices(nbr[v] & mask))
        for i in range(len(ends)):
            for j in range(i + 1, len(ends)):
                yield (ends[i], v, ends[j])

    def best(mask: int) -> tuple:
        if mask == 0:
            return ()
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        res = best(rest)
        for a, c, b in options(v, rest):
            got = best(mask & ~_mask3(a, c, b))
            if len(got) >= len(res):
                res = ((a, c, b),) + got
        memo[mask] = res
        return res

    return list(best((1 << G.n) - 1))


def _mask3(a: int, c: int, b: int) -> int:
    return (1 << a) | (1 << c) | (1 << b)


def total_edge_cover_forest(G: Graph, cap: int = 16) -> ConstructionResult:
    """Spanning forest whose components each span >= 3 vertices.

    Seeds components with a P3 packing (exact when n <= cap) and attaches
    every remaining vertex by one edge; edge count is n minus the number of
    packed seeds.  On a cubic graph with exact packing that is <= 3n/4.
    """
    if G.n < 3:
        raise ValueError("need at least 3 vertices")
    if len(components(G.to_hypergraph())) != 1:
        raise ValueError("graph must be connected")
    exact = G.n <= cap
    packing = p3_packing(G, "exact" if exact else "greedy", cap)
    cubic = all(d == 3 for d in G.degrees())
    if cubic and exact and len(packing) < -(-G.n // 4):
        raise RuntimeError(
            f"cubic graph packed only {len(packing)} paths, below ceil(n/4)"
        )
    covered = 0
    edges = []
    trace = []
    for a, c, b in packing:
        edges += [(min(a, c), max(a, c)), (min(c, b), max(c, b))]
        covered |= _mask3(a, c, b)
        trace.append(("seed", (a, c, b), ()))
    nbr = G.neighbor_masks()
    while covered != (1 << G.n) - 1:
        v = next(
            u for u in range(G.n)
            if not covered >> u & 1 and nbr[u] & covered
        )
        u = (nbr[v] & covered & -(nbr[v] & covered)).bit_length() - 1
        edges.append((min(u, v), max(u, v)))
        covered |= 1 << v
        trace.append(("attach", (v, u), ()))
    chosen = tuple(sorted(edges))
    if not is_total_edge_cover(G, chosen):
        raise RuntimeError(f"construction produced an invalid cover {chosen}")
    guarantee = Fraction(3 * G.n, 4) if cubic and exact else Fraction(len(chosen))
    return ConstructionResult(chosen, guarantee, tuple(trace))


def _strong_params(H: Hypergraph, c: float):
    sizes = {len(e) for e in H.edges}
    if len(sizes) != 1:
        raise ValueError("edges must all have one size")
    k = sizes.pop()
    if k < 2:
        raise ValueError("edge size must be at least 2")
    if not c > 1:   # NaN included
        raise ValueError(f"c must exceed 1, got {c}")
    p = math.log(c * k) / (k - 1)
    if p > 1:
        raise ValueError(f"p = ln(ck)/(k-1) = {p:.4f} exceeds 1")
    return k, p


def strong_expected_bound(H: Hypergraph, c: float) -> float:
    """Closed-form bound on the expected size of the randomized strong
    transversal, ln(ck)/(k-1) n + ln(ck)/(c(k-1)) m + 2m/(ck); one run may
    exceed it."""
    k, _ = _strong_params(H, c)
    lk = math.log(k) + math.log(c)
    return lk / (k - 1) * H.n + lk / (c * (k - 1)) * H.m + 2 / (c * k) * H.m


def _draw_threshold(p: float) -> int:
    """The smallest u with u / 2**64 >= p: a draw u keeps its vertex, as
    rng.random() < p would, exactly when u is below it.  u / 2**64 rounds
    monotonically, so bisection over the integers finds it."""
    lo, hi = 0, 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


# The trials' Bernoulli pass runs word-parallel.  Lane v of one int sits at
# bit 128 v and holds vertex v's splitmix64 state, (s0 + (v + 1) golden) mod
# 2**64, with room above it for a 64 x 64-bit product.  Each xor-shift-
# multiply step runs on the whole int and is masked back to 64 bits a lane.
# A draw w keeps its vertex when w is below the threshold T, which is when
# w + 2**64 - T does not carry into bit 64 of its lane; the carry bits come
# out as one binary string through to_bytes, a slice and translate.  Each
# edge is then hit h = mask & x1: none when h == 0, once when h & (h - 1)
# == 0, and only those edges reach the repair.

_KEPT = bytes.maketrans(b"\0\1", b"10")    # carry byte -> kept bit


def _strong_kernel(masks, n: int, p: float):
    """One trial's draw(rng) -> (x1, x2, x3) on edges given as masks over
    n vertices, with its lane constants built once.

    x1 keeps vertex v when rng's (v+1)-th next draw is below
    _draw_threshold(p), as rng.random() < p would, and leaves rng n draws
    on.  Edges x1 misses add their two lowest vertices to x2, edges it hits
    once their lowest unkept vertex to x3.
    """
    ones = int.from_bytes((b"\1" + bytes(15)) * n, "little")
    low64 = _M64 * ones
    steps = int.from_bytes(
        b"".join(((v + 1) * _GOLDEN & _M64).to_bytes(16, "little")
                 for v in range(n)),
        "little",
    )
    no_carry = (2**64 - _draw_threshold(p)) * ones

    def draw(rng: SplitMix64):
        s0 = rng.state
        z = steps + s0 * ones & low64
        z = ((z ^ z >> 30) & low64) * 0xBF58476D1CE4E5B9 & low64
        z = ((z ^ z >> 27) & low64) * 0x94D049BB133111EB & low64
        z = ((z ^ z >> 31) & low64) + no_carry
        x1 = int(z.to_bytes(16 * n, "big")[7::16].translate(_KEPT), 2)
        rng.state = (s0 + n * _GOLDEN) & _M64
        x2 = x3 = 0
        for mask in masks:
            hit = mask & x1
            if hit & (hit - 1):
                continue            # hit twice or more
            if hit:
                rest = mask ^ hit
                x3 |= rest & -rest
            else:
                lo = mask & -mask
                x2 |= lo | ((mask ^ lo) & -(mask ^ lo))
        return x1, x2, x3

    return draw


def randomized_strong_transversal(H: Hypergraph, c: float, seed: int) -> tuple:
    """Two-or-more vertices per edge via one Bernoulli pass plus repairs.

    X1 keeps each vertex with probability p = ln(ck)/(k-1) (draws in vertex
    order); edges missed entirely contribute their two lowest vertices, edges
    hit once their lowest unkept vertex.  Reproducible per (H, c, seed).
    """
    _, p = _strong_params(H, c)
    x1, x2, x3 = _strong_kernel(H.edge_masks(), H.n, p)(SplitMix64(seed))
    out = tuple(bit_indices(x1 | x2 | x3))
    if not is_strong_transversal(H, out):
        raise RuntimeError("construction produced an invalid strong transversal")
    return out


def _trial_rows(H: Hypergraph, c: float, seed: int, lo: int, hi: int):
    _, p = _strong_params(H, c)
    masks = H.edge_masks()
    draw = _strong_kernel(masks, H.n, p)
    rows = []
    for i in range(lo, hi):
        x1, x2, x3 = draw(SplitMix64(split_seed(seed, i)))
        union = x1 | x2 | x3
        valid = all((m & union).bit_count() >= 2 for m in masks)
        rows.append(
            (union.bit_count(), x1.bit_count(), x2.bit_count(),
             x3.bit_count(), valid)
        )
    return rows


def strong_transversal_trials(
    H: Hypergraph, c: float, trials: int, seed: int, jobs: int = 1
) -> TrialReport:
    """Monte Carlo over independent per-trial seeds; statistics are identical
    for any jobs value because trial i always uses split_seed(seed, i)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    k, p = _strong_params(H, c)
    if jobs > 1 and trials >= 4 * jobs:
        # the pool's import costs a quarter of the CLI's start-up, so only
        # a run that asks for workers pays it
        from concurrent.futures import ProcessPoolExecutor

        bounds = [trials * w // jobs for w in range(jobs + 1)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = pool.map(_trial_rows, [H] * jobs, [c] * jobs,
                              [seed] * jobs, bounds[:-1], bounds[1:])
        rows = [r for chunk in chunks for r in chunk]
    else:
        rows = _trial_rows(H, c, seed, 0, trials)
    lk = math.log(k) + math.log(c)
    bound = strong_expected_bound(H, c)
    sizes = [r[0] for r in rows]
    x1s = [r[1] for r in rows]
    return TrialReport(
        k=k,
        c=c,
        trials=trials,
        n=H.n,
        m=H.m,
        p=p,
        mean_size=_mean(sizes),
        std_err=_stderr(sizes),
        bound=bound,
        all_valid=all(r[4] for r in rows),
        mean_x1=_mean(x1s),
        se_x1=_stderr(x1s),
        expect_x1=p * H.n,
        mean_x2=_mean([r[2] for r in rows]),
        cap_x2=2 / (c * k) * H.m,
        mean_x3=_mean([r[3] for r in rows]),
        cap_x3=lk / (c * (k - 1)) * H.m,
    )


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def _stderr(xs) -> float:
    if len(xs) < 2:
        return 0.0
    mu = _mean(xs)
    var = sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))
