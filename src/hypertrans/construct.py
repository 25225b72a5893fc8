"""Constructive algorithms with proven size guarantees.

Deterministic reductions building total transversals within 2(n+m)/5 (graphs)
and (n+m)/3 (k >= 3), a P3-packing based total edge cover for graphs, and the
randomized strong transversal with its closed-form expectation bound.  Every
tie is broken toward the lowest index so runs are reproducible, and every
returned set is re-validated against the definitional predicate.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .hcore import Hypergraph, class_check, components, delete_vertices, induced
from .solve import (
    is_strong_transversal,
    is_total_edge_cover,
    is_total_transversal,
)
from .xform import Graph, dual

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
    """Seedable counter-based generator; .split(i) gives a child stream."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _M64
        return _mix(self.state)

    def random(self) -> float:
        return self.next_u64() / 2**64

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("empty range")
        limit = 2**64 - (2**64 % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct values from 0..n-1, partial Fisher-Yates order."""
        if k > n:
            raise ValueError("sample larger than population")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def split(self, index: int) -> "SplitMix64":
        return SplitMix64(split_seed(self.state, index))


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
    full = range(H.m)
    adj: set[tuple[int, int]] = set()
    for e in H.edges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                adj.add((e[i], e[j]))
    for x, y in sorted(adj):
        pair = (1 << x) | (1 << y)
        if all(masks[i] & pair for i in full):
            return x, y
    return None


def _repair_isolated(H: Hypergraph, X: set, back, T: list):
    """After X leaves, fix each newly isolated edge with one vertex of
    original degree >= 2 (lowest index); returns all vertices to delete."""
    degs = H.degrees()
    keep = [e for e in H.edges if not X.intersection(e)]
    repaired = []
    doomed = set(X)
    for e in keep:
        others = [f for f in keep if f != e and set(f) & set(e)]
        if others:
            continue
        z = next(v for v in e if degs[v] >= 2)
        T.append(back[z])
        repaired.append(back[z])
        doomed.update(e)
    return doomed, repaired


def tt_2uniform(H: Hypergraph) -> ConstructionResult:
    """Total transversal of a graph-like instance, at most 2(n+m)/5 vertices.

    Per component: take an adjacent dominating-pair base case when one
    exists, otherwise remove a max-degree vertex x with a neighbor y still
    covered without x, repairing any edge this isolates.
    """
    cc = class_check(H)
    if not (cc.in_Hk and cc.k == 2):
        raise ValueError("input must be 2-uniform with every component sound")
    T: list[int] = []
    trace: list[tuple] = []
    work = _components_with_maps(H, tuple(range(H.n)))
    while work:
        C, back = work.pop()
        if C.m == 0:
            continue
        pair = _covering_adjacent_pair(C)
        if pair:
            x, y = pair
            T += [back[x], back[y]]
            trace.append(("pair", (back[x], back[y]), ()))
            continue
        degs = C.degrees()
        x = max(range(C.n), key=lambda v: (degs[v], -v))
        # lowest neighbor of x still covered once x leaves
        y = min(
            v
            for e in C.edges
            if x in e
            for v in e
            if v != x and degs[v] >= 2
        )
        T += [back[x], back[y]]
        doomed, repaired = _repair_isolated(C, {x, y}, back, T)
        trace.append(("xy", (back[x], back[y]), tuple(repaired)))
        rest = delete_vertices(C, doomed)
        work += _components_with_maps(rest, tuple(back[v] for v in rest.labels))
    witness = tuple(sorted(T))
    if not is_total_transversal(H, witness):
        raise RuntimeError(f"construction produced an invalid set {witness}")
    return ConstructionResult(witness, Fraction(2 * (H.n + H.m), 5), tuple(trace))


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
    T: list[int] = []
    trace: list[tuple] = []
    work = _components_with_maps(H, tuple(range(H.n)))
    while work:
        C, back = work.pop()
        if C.m == 0:
            continue
        X = _k_rule(C, T, trace, back)
        if X is None:
            continue                       # terminal case consumed C
        doomed, repaired = _repair_isolated(C, X, back, T)
        if repaired:
            trace[-1] = trace[-1][:2] + (tuple(repaired),)
        rest = delete_vertices(C, doomed)
        work += _components_with_maps(rest, tuple(back[v] for v in rest.labels))
    witness = tuple(sorted(T))
    if not is_total_transversal(H, witness):
        raise RuntimeError(f"construction produced an invalid set {witness}")
    return ConstructionResult(witness, Fraction(H.n + H.m, 3), tuple(trace))


def _k_rule(C: Hypergraph, T: list, trace: list, back):
    """Apply the first matching reduction to connected C; returns the removed
    pair, or None when a terminal dual construction finished the component."""
    pair = _covering_adjacent_pair(C)
    if pair:
        x, y = pair
        T += [back[x], back[y]]
        trace.append(("pair", (back[x], back[y]), ()))
        return None
    degs = C.degrees()
    if max(degs) >= 3:
        x = max(range(C.n), key=lambda v: (degs[v], -v))
        nx = _nbhd(C, x)
        y = min(
            v for e in C.edges if x not in e for v in e if v in nx
        )
        T += [back[x], back[y]]
        trace.append(("maxdeg", (back[x], back[y]), ()))
        return {x, y}
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
        T += [back[v2], back[v3]]
        trace.append(("deg1", (back[v2], back[v3]), ()))
        return {v2, v3}
    masks = C.edge_masks()
    for i in range(C.m):
        for j in range(i + 1, C.m):
            if (masks[i] & masks[j]).bit_count() >= 2:
                u = min(set(C.edges[i]) & set(C.edges[j]))
                v = min(set(C.edges[i]) - set(C.edges[j]))
                T += [back[u], back[v]]
                trace.append(("overlap", (back[u], back[v]), ()))
                return {u, v}
    # terminal: 2-regular and linear; go through the dual graph
    G = dual(C)
    k = len(C.edges[0])
    if k >= 4:
        chosen = _spanning_tree_labels(G)
        T += [back[v] for v in chosen]
        trace.append(("tree", tuple(sorted(back[v] for v in chosen)), ()))
    else:
        cover = total_edge_cover_forest(G)
        lookup = {e: lab for e, lab in zip(G.edges, G.edge_labels)}
        chosen = [lookup[e] for e in cover.set]
        T += [back[v] for v in chosen]
        trace.append(("forest", tuple(sorted(back[v] for v in chosen)), ()))
    return None


def _nbhd(C: Hypergraph, x: int) -> set:
    out: set[int] = set()
    for e in C.edges:
        if x in e:
            out.update(e)
    out.discard(x)
    return out


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

    exact mode maximizes the count by masked search (n <= cap); greedy scans
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

    memo: dict[int, int] = {}

    def options(v: int, mask: int):
        # P3s through v inside mask, canonical order: v as endpoint, then center
        for c in _bit_indices(nbr[v] & mask):
            for b in _bit_indices(nbr[c] & mask & ~(1 << v)):
                yield (v, c, b) if v < b else (b, c, v)
        ends = list(_bit_indices(nbr[v] & mask))
        for i in range(len(ends)):
            for j in range(i + 1, len(ends)):
                yield (ends[i], v, ends[j])

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        res = best(mask & ~(1 << v))
        rest = mask & ~(1 << v)
        for a, c, b in options(v, rest):
            res = max(res, 1 + best(mask & ~_mask3(a, c, b)))
        memo[mask] = res
        return res

    out = []
    mask = (1 << G.n) - 1
    while mask:
        want = best(mask)
        v = (mask & -mask).bit_length() - 1
        if best(mask & ~(1 << v)) == want:
            mask &= ~(1 << v)
            continue
        for a, c, b in options(v, mask & ~(1 << v)):
            if 1 + best(mask & ~_mask3(a, c, b)) == want:
                out.append((a, c, b))
                mask &= ~_mask3(a, c, b)
                break
    return out


def _bit_indices(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


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
    if c <= 1:
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


def _strong_parts(masks, n: int, p: float, rng: SplitMix64):
    x1 = 0
    for v in range(n):
        if rng.random() < p:
            x1 |= 1 << v
    x2 = 0
    x3 = 0
    for mask in masks:
        hit = (mask & x1).bit_count()
        if hit == 0:
            lo = mask & -mask
            x2 |= lo | ((mask ^ lo) & -(mask ^ lo))
        elif hit == 1:
            rest = mask & ~x1
            x3 |= rest & -rest
    return x1, x2, x3


def randomized_strong_transversal(H: Hypergraph, c: float, seed: int) -> tuple:
    """Two-or-more vertices per edge via one Bernoulli pass plus repairs.

    X1 keeps each vertex with probability p = ln(ck)/(k-1) (draws in vertex
    order); edges missed entirely contribute their two lowest vertices, edges
    hit once their lowest unkept vertex.  Reproducible per (H, c, seed).
    """
    _, p = _strong_params(H, c)
    x1, x2, x3 = _strong_parts(H.edge_masks(), H.n, p, SplitMix64(seed))
    out = tuple(_bit_indices(x1 | x2 | x3))
    if not is_strong_transversal(H, out):
        raise RuntimeError("construction produced an invalid strong transversal")
    return out


def _trial_rows(H: Hypergraph, c: float, seed: int, lo: int, hi: int):
    _, p = _strong_params(H, c)
    masks = H.edge_masks()
    rows = []
    for i in range(lo, hi):
        rng = SplitMix64(split_seed(seed, i))
        x1, x2, x3 = _strong_parts(masks, H.n, p, rng)
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
        bounds = [trials * w // jobs for w in range(jobs + 1)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = pool.map(
                _trial_rows_star,
                [(H, c, seed, bounds[w], bounds[w + 1]) for w in range(jobs)],
            )
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


def _trial_rows_star(args):
    return _trial_rows(*args)


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def _stderr(xs) -> float:
    if len(xs) < 2:
        return 0.0
    mu = _mean(xs)
    var = sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))
