"""Constructive algorithms with proven size guarantees.

Deterministic reductions building total transversals within 2(n+m)/5 (graphs)
and (n+m)/3 (k >= 3), a P3-packing based total edge cover for graphs, and the
randomized strong transversal with its closed-form expectation bound.  Every
tie is broken toward the lowest index so runs are reproducible, and every
returned set is re-validated against the definitional predicate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .hcore import (
    Hypergraph, _mask, bit_indices, class_check, components, edge_components,
    mask_neighborhoods, neighborhood_masks, shared_vertices,
)
from .solve import (
    is_strong_transversal,
    is_total_edge_cover,
    is_total_transversal,
)
from .xform import Graph

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


def _covering_adjacent_pair(masks, nb, degs):
    """Lowest adjacent pair {x, y} hitting every edge mask, or None.

    nb holds the neighborhood masks, and degs maps each vertex, ascending,
    to its degree.  x walks upward and, for each x, y the neighbors above
    x, in the lex order of the 2-section's edges; the lowest such y lying
    in every edge that misses x gives the pair.  Such a pair shares an
    edge too, so d(x) + d(y) > m: x with d(x) + max degree <= m is skipped.
    """
    need = len(masks) + 1 - max(degs.values())
    for x, d in degs.items():
        if d < need:
            continue
        ys = nb[x] >> (x + 1) << (x + 1)
        for mask in masks:
            if not mask >> x & 1:
                ys &= mask
        if ys:
            return x, next(bit_indices(ys))
    return None


def _repair_isolated(H: Hypergraph, masks, degs, doomed: int):
    """After the vertices of mask doomed leave, fix each newly isolated edge
    with its lowest vertex of degree >= 2 in H (masks and degs are H's);
    returns the mask of all vertices to delete and the repair vertices."""
    keep = [(e, a) for e, a in zip(H.edges, masks) if not a & doomed]
    # a kept edge meets no other kept edge exactly when none of its
    # vertices lies in another kept edge
    shared = shared_vertices([a for _, a in keep])
    repaired = []
    for e, a in keep:
        if a & shared:
            continue
        repaired.append(next(v for v in e if degs[v] >= 2))
        doomed |= a
    return doomed, repaired


def _reduce(H: Hypergraph, rule, guarantee: Fraction) -> ConstructionResult:
    """The reduction scheme behind both size bounds, run per connected piece.

    A piece C holds H's own edges, in H's order and on H's vertex indices,
    so no step re-indexes.  Each step reads C's edge masks, neighborhood
    masks and degrees (a dict over C's vertices, ascending) once.  A piece
    with an adjacent pair hitting every edge takes that pair.  Otherwise
    rule(C, masks, nb, degs) names its step and the vertices it picks, and
    says whether they finish C.  If not, they leave with every edge they
    meet, each edge this isolates is repaired, and the edges left split
    into their pieces again.  The trace holds (rule id, picked, repaired),
    and the union is re-checked as a total transversal.
    """
    T: list[int] = []
    trace: list[tuple] = []
    work = edge_components(H.edges)
    while work:
        C = Hypergraph(H.n, work.pop())
        masks = C.edge_masks()
        nb = mask_neighborhoods(H.n, masks)
        degs = dict.fromkeys(sorted({v for e in C.edges for v in e}), 0)
        for e in C.edges:
            for v in e:
                degs[v] += 1
        pair = _covering_adjacent_pair(masks, nb, degs)
        name, picked, final = (("pair", pair, True) if pair
                               else rule(C, masks, nb, degs))
        T += picked
        if final:
            trace.append((name, tuple(sorted(picked)), ()))
            continue
        doomed, repaired = _repair_isolated(C, masks, degs, _mask(picked))
        T += repaired
        trace.append((name, tuple(picked), tuple(repaired)))
        work += edge_components([e for e, a in zip(C.edges, masks)
                                 if not a & doomed])
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


def _xy_rule(C: Hypergraph, masks, nb, degs):
    """A max-degree x (the lowest on ties) and its lowest neighbor y that is
    still covered once x leaves."""
    x = max(degs, key=degs.get)     # the first maximum: the lowest
    y = min(v for v in bit_indices(nb[x]) if degs[v] >= 2)
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


def _k_rule(C: Hypergraph, masks, nb, degs):
    """The first matching reduction after the covering pair, on a connected
    piece C with its edge masks, neighborhood masks and degrees; the
    terminal constructions on C's dual graph finish C.  C has no repeated
    edge, so an edge is told from another by its mask."""
    x = max(degs, key=degs.get)     # the first maximum: the lowest
    if degs[x] >= 3:
        # the lowest neighbor of x in an edge that misses x
        near = 0
        for a in masks:
            if not a >> x & 1:
                near |= a
        return "maxdeg", (x, next(bit_indices(near & nb[x]))), False
    if 1 in degs.values():
        v1 = next(v for v, d in degs.items() if d == 1)
        a1 = next(a for a in masks if a >> v1 & 1)
        a2 = next(a for a in masks if a != a1 and a & a1)
        union12 = a1 | a2
        a3 = next(a for a in masks if a != a1 and a != a2 and a & union12)
        return ("deg1", (next(bit_indices(a1 & a2)),
                         next(bit_indices(a3 & union12))), False)
    # every vertex lies in two edges: one pass maps each pair (i, j) of
    # edge indices to the vertices the two edges share, ascending
    first: dict[int, int] = {}
    joins: dict[tuple[int, int], list[int]] = {}
    for j, e in enumerate(C.edges):
        for v in e:
            i = first.setdefault(v, j)
            if i != j:
                joins.setdefault((i, j), []).append(v)
    over = min((p for p, vs in joins.items() if len(vs) >= 2), default=None)
    if over:
        i, j = over
        return ("overlap", (joins[over][0],
                            next(bit_indices(masks[i] & ~masks[j]))), False)
    # terminal: C is 2-regular and linear, and G is its dual, vertex i
    # standing for edge i and each edge for the one vertex its pair shares
    G = Graph(len(masks), tuple(sorted(joins)))
    if len(C.edges[0]) >= 4:
        return "tree", [joins[p][0] for p in _spanning_tree(G)], True
    return ("forest", [joins[p][0] for p in total_edge_cover_forest(G).set],
            True)


def _spanning_tree(G: Graph) -> list[tuple[int, int]]:
    """The edges of a BFS tree of G from vertex 0, in the order found, each
    vertex's neighbors taken lowest first."""
    nb = neighborhood_masks(G)
    seen = 1
    queue = [0]
    tree = []
    for u in queue:
        fresh = nb[u] & ~seen
        seen |= fresh
        for v in bit_indices(fresh):
            tree.append((min(u, v), max(u, v)))
            queue.append(v)
    if seen != (1 << G.n) - 1:
        raise ValueError("dual graph is not connected")
    return tree


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
    nbr = neighborhood_masks(G)
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
    nbr = neighborhood_masks(G)
    full = (1 << G.n) - 1
    # a heap (ascending as built) of the uncovered vertices with a covered
    # neighbor; an entry covered since it was pushed is passed over
    near = [v for v in bit_indices(full & ~covered) if nbr[v] & covered]
    while covered != full:
        v = heapq.heappop(near)
        if covered >> v & 1:
            continue
        hold = nbr[v] & covered
        u = (hold & -hold).bit_length() - 1
        edges.append((min(u, v), max(u, v)))
        covered |= 1 << v
        trace.append(("attach", (v, u), ()))
        for w in bit_indices(nbr[v] & ~covered):
            heapq.heappush(near, w)
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
