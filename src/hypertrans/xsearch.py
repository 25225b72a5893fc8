"""Instance generation, isomorphism-free enumeration, ratio search, and the
theorem-verification harness.

Canonical form is the lexicographically smallest sorted edge list over all
vertex relabelings.  One best-first assignment search finds it: labels go
out in increasing order, children are ranked by an incremental lower bound
on the sorted edge image and dropped once that bound reaches the incumbent,
and vertices lying in exactly the same edges are tried once.  The
enumeration is orderly: its canonicity gate runs the same search, stopping
at the first image below the candidate, on every prefix of the edge list as
it grows, so a non-canonical prefix is cut with its whole subtree and only
canonical representatives are emitted.  All theorem rows carry exact
rationals so tightness (slack zero) is a meaningful statement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .construct import SplitMix64, split_seed, strong_transversal_trials
from .hcore import (
    BoundRow,
    ClassCheck,
    Hypergraph,
    _floor_rows,
    class_check,
    hypergraph,
    induced,
    shared_vertices,
)
from .solve import solve, tau_t


def _lex_min(H: Hypergraph, stop_below: bool) -> tuple:
    """Smallest sorted edge image over all relabelings, by best-first search.

    Vertices get labels 0, 1, 2, ... in order, so each edge's assigned labels
    grow by appending and stay sorted.  An edge with labels `got` and `need`
    unlabeled vertices is bounded below by `got` plus the next `need` labels;
    the sorted list of those per-edge bounds bounds every completion.  At
    label t each child v -> t is scored by that bound (edges through v keep
    t, the others start at t + 1); children whose bound is not below the
    incumbent are dropped and the rest searched smallest bound first.
    Unlabeled vertices lying in exactly the same edges are swapped by an
    automorphism that fixes every labeled vertex, so only one of them is
    tried.  With stop_below the search returns the first image strictly
    below H.edges, which decides canonicity without finishing the search.
    """
    n, edges = H.n, H.edges
    lengths = range(max(map(len, edges), default=0) + 1)
    # the edges through each vertex
    where = [tuple(i for i, e in enumerate(edges) if v in e) for v in range(n)]
    got: list[tuple] = [()] * len(edges)
    need = [len(e) for e in edges]
    best = edges                     # identity relabeling, start tight

    def search(t: int, free: list, here: list) -> bool:
        # here[r] is the run of labels t..t+r-1
        nonlocal best
        later = [tuple(range(t + 1, t + 1 + r)) for r in lengths]
        stay = [g + here[r] for g, r in zip(got, need)]
        bump = [g + later[r] for g, r in zip(got, need)]
        twins = {}
        for v in free:
            twins.setdefault(where[v], v)
        children = []
        for v in twins.values():
            img = bump[:]
            for i in where[v]:
                img[i] = stay[i]
            img.sort()
            img = tuple(img)
            if img < best:
                children.append((img, v))
        children.sort()
        last = len(free) == 1
        for img, v in children:
            if img >= best:
                break
            if last:                 # every edge complete: img is an image
                best = img
                return stop_below
            for i in where[v]:
                got[i] += (t,)
                need[i] -= 1
            stop = search(t + 1, [u for u in free if u != v], later)
            for i in where[v]:
                got[i] = got[i][:-1]
                need[i] += 1
            if stop:
                return True
        return False

    search(0, list(range(n)), [tuple(range(r)) for r in lengths])
    return best


def canonical_key(H: Hypergraph) -> tuple:
    """Lexicographically minimal sorted edge list over all relabelings.

    Edges may differ in size.  The search is the pruned best-first
    assignment of `_lex_min`, run to the end.
    """
    return _lex_min(H, stop_below=False)


def canonical_form(H: Hypergraph) -> Hypergraph:
    return Hypergraph(H.n, canonical_key(H))


def is_canonical(H: Hypergraph) -> bool:
    """True when no relabeling gives a sorted edge list below H.edges; stops
    at the first one that does."""
    return _lex_min(H, stop_below=True) == H.edges


def enumerate_Hk(k: int, n_max: int, m_max: int, nm_max: int | None = None):
    """All sound k-uniform instances with n <= n_max, m <= m_max, exactly one
    per isomorphism class, streamed in (n, m, edge list) order.  nm_max
    additionally caps n + m, pruning whole shapes instead of filtering.

    Builds edge lists in strictly increasing lexicographic order where each
    edge's unseen vertices are a consecutive block; minimal labelings have
    that shape, so every class survives.  An is_canonical gate on every
    prefix drops the duplicates.  That is sound because a prefix E' of a
    canonical list E, taken on the t vertices it uses, is canonical too: if
    a relabeling of those t vertices sorted E' below itself, applying it to
    E (the later vertices fixed) would sort E below itself, since every
    later edge lies above every edge of E' and adding edges only lowers the
    sorted order statistics.  So a cut subtree holds no class and the stream
    is unchanged.  Canonicity of an edge list does not depend on the shape,
    so each prefix is gated once per call.  k is checked when this is
    called, before the first instance is pulled.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return _enumerate(k, n_max, m_max, nm_max)


def _enumerate(k: int, n_max: int, m_max: int, nm_max: int | None):
    canonical: dict[tuple, bool] = {}
    for n in range(k + 1, n_max + 1):
        for m in range(2, m_max + 1):
            if n > k * m:
                continue
            if nm_max is not None and n + m > nm_max:
                continue
            yield from _enumerate_nm(k, n, m, canonical)


def _enumerate_nm(k: int, n: int, m: int, canonical: dict):
    first = tuple(range(k))

    def candidates(t: int, last: tuple):
        out = []
        for j in range(0, min(k, n - t) + 1):
            new = tuple(range(t, t + j))
            for old in itertools.combinations(range(t), k - j):
                e = old + new
                if e > last:
                    out.append(e)
        return sorted(out)

    def gate(edges: tuple, t: int) -> bool:
        # edges use exactly the vertices 0..t-1
        ok = canonical.get(edges)
        if ok is None:
            ok = canonical[edges] = is_canonical(Hypergraph(t, edges))
        return ok

    def dfs(edges: list, t: int):
        if len(edges) == m:
            if t != n:
                return
            H = Hypergraph(n, tuple(edges))
            masks = H.edge_masks()
            shared = shared_vertices(masks)
            for a in masks:
                if not a & shared:
                    return               # isolated edge
            if gate(H.edges, n):
                yield H
            return
        left = m - len(edges)
        if t + k * left < n:
            return                       # cannot reach n vertices
        for e in candidates(t, edges[-1]):
            edges.append(e)
            u = max(t, e[-1] + 1)
            # a full list meets the gate at its leaf, after the isolated-edge
            # test; a shorter one here, so its subtree is cut if it fails
            if len(edges) == m or gate(tuple(edges), u):
                yield from dfs(edges, u)
            edges.pop()

    if n < k:
        return
    yield from dfs([first], k)


# draws random_hypergraph makes before it gives up on require_class
_TRIES = 500


def random_hypergraph(
    k: int, n: int, m: int, seed: int, require_class: bool = False,
) -> Hypergraph:
    """m distinct uniform k-subsets of an n-set, reproducible per seed.

    With require_class the draw is repeated, up to _TRIES times, until no
    edge is isolated, and restricted to its covered vertices: uniform
    conditioned on class membership.  The edges are distinct k-sets, and
    distinct ones with k < 2 never meet, so the fold is the whole test.
    """
    if m < 1:
        raise ValueError("need at least one edge")
    if m > math.comb(n, k):
        raise ValueError(f"cannot pick {m} distinct {k}-subsets of {n} vertices")
    rng = SplitMix64(seed)

    def draw():
        edges: set[tuple[int, ...]] = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(n, k))))
        return sorted(edges)

    if not require_class:
        return hypergraph(n, draw())
    for _ in range(_TRIES):
        H = Hypergraph(n, tuple(draw()))
        masks = H.edge_masks()
        shared = shared_vertices(masks)
        if all(a & shared for a in masks):
            return induced(H, {v for e in H.edges for v in e})
    raise RuntimeError(
        f"no in-class instance after {_TRIES} draws (k={k}, n={n}, m={m})"
    )


@dataclass(frozen=True)
class BkEstimate:
    k: int
    best_ratio: Fraction
    witness: Hypergraph
    instances_tested: int
    mode: str                    # exhaustive | random


_DEFAULT_ENUM = {2: (5, 10), 3: (6, 4)}


def estimate_bk(
    k: int,
    budget: int,
    seed: int,
    n_max: int | None = None,
    m_max: int | None = None,
) -> BkEstimate:
    """Best observed ratio of total transversal to n+m over the sound class.

    One stream of instances, cut to the first budget: the small-instance
    enumeration, then seeded random in-class draws cycling through small
    shapes.  Strict improvement keeps the earliest witness, so the estimate
    is monotone in budget, and mode says which part of the stream it came
    from.
    """
    dn, dm = _DEFAULT_ENUM.get(k, (k + 2, 3))
    # made first: enumerate_Hk checks k when called, at any budget
    enumeration = enumerate_Hk(k, dn if n_max is None else n_max,
                               dm if m_max is None else m_max)
    shapes = [(k + 1, 2), (k + 1, 3), (k + 2, 3), (k + 2, 4), (k + 3, 4)]
    shapes = [(n, m) for n, m in shapes if m <= math.comb(n, k)]

    def draws():
        for H in enumeration:
            yield H, "exhaustive"
        for i in itertools.count():
            n, m = shapes[i % len(shapes)]
            yield random_hypergraph(k, n, m, split_seed(seed, i),
                                    require_class=True), "random"

    best: Fraction | None = None
    witness = mode = None
    tested = 0
    for H, kind in itertools.islice(draws(), max(budget, 0)):
        tested += 1
        ratio = Fraction(tau_t(H).value, H.n + H.m)
        if best is None or ratio > best:
            best, witness, mode = ratio, H, kind
    if witness is None:
        raise ValueError("budget admitted no instances")
    check = Fraction(tau_t(witness).value, witness.n + witness.m)
    if check != best:
        raise RuntimeError("witness ratio failed to reproduce")
    return BkEstimate(k, best, witness, tested, mode)


@dataclass(frozen=True)
class BoundReport:
    instance_id: str
    flags: ClassCheck
    rows: tuple[BoundRow, ...]
    skipped: tuple[tuple[str, str], ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.rows)

    def as_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "k": self.flags.k,
            "in_class": self.flags.in_Hk,
            "in_star_class": self.flags.in_Hk_star,
            "all_hold": self.all_hold,
            "rows": [r.as_dict() for r in self.rows],
            "skipped": [{"theorem": t, "reason": r} for t, r in self.skipped],
        }


# best known constants for the supremum ratio at each uniformity:
# exact at 2 and 3, proven upper bounds beyond
_B_VALUES = {2: (Fraction(2, 5), "exact"), 3: (Fraction(1, 3), "exact"),
             4: (Fraction(1, 3), "bound-based")}
_B_REST = (Fraction(2, 7), "bound-based")


def verify_bounds(H: Hypergraph, instance_id: str | None = None) -> BoundReport:
    """Evaluate every theorem row whose class precondition holds; the rest
    are listed as skipped with the failing precondition spelled out."""
    if instance_id is None:
        import hashlib      # deferred: only this default id needs it

        instance_id = hashlib.sha256(H.to_text().encode()).hexdigest()[:12]
    cc = class_check(H)
    cache: dict[str, Fraction] = {}

    def val(name) -> Fraction:
        if name not in cache:
            cache[name] = Fraction(solve(H, name).value)
        return cache[name]

    n, m, k = H.n, H.m, cc.k
    sound, star = cc.in_Hk, cc.in_Hk_star
    b, b_basis = _B_VALUES.get(k - 1, _B_REST)
    # (theorem, precondition, reason when it fails, lhs factor, lhs
    # invariant, rhs built only when the precondition holds, basis)
    table = (
        ("T_b2", sound and k == 2, "requires a sound 2-uniform instance",
         1, "tau_t", lambda: Fraction(2 * (n + m), 5), "exact"),
        ("T_k3", sound and k >= 3, "requires a sound instance with k >= 3",
         1, "tau_t", lambda: Fraction(n + m, 3), "exact"),
        ("T_k4", sound and k >= 4, "requires a sound instance with k >= 4",
         6, "tau_t", lambda: Fraction(2 * n + 2 * m - cc.n1), "exact"),
        ("T_k5", sound and k >= 5, "requires a sound instance with k >= 5",
         7, "tau_t", lambda: Fraction(2 * n + 2 * m - cc.n1), "exact"),
        ("T_main2", sound and 2 <= k <= 6,
         "requires a sound instance with k in 2..6",
         1, "gamma_t", lambda: Fraction(2 * n, k + 1), "exact"),
        ("T_main3", star and k >= 4,
         "requires a star-class instance with k >= 4",
         1, "gamma_t", lambda: Fraction(n, 3), "exact"),
        ("T_main1A", sound and k >= 3, "requires a sound instance with k >= 3",
         1, "gamma_t", lambda: max(Fraction(2, k + 1), b) * n, b_basis),
        ("T_main1B", star and k >= 4,
         "requires a star-class instance with k >= 4",
         1, "gamma_t", lambda: max(Fraction(2, k + 2), b) * n, b_basis),
    )
    rows: list[BoundRow] = []
    skipped: list[tuple[str, str]] = []
    for theorem, holds, reason, factor, name, rhs, basis in table:
        if not holds:
            skipped.append((theorem, reason))
            continue
        lhs = val(name) if factor == 1 else factor * val(name)
        rows.append(BoundRow(theorem, lhs, rhs(), basis=basis,
                             lhs_provenance="solver"))
    if sound:
        rows.extend(_floor_rows(cc, n, m))
    else:
        skipped.append(("O2", "requires a sound uniform instance"))
    rows.append(BoundRow("chain_tau", val("tau"), val("tau_t"),
                         lhs_provenance="solver", rhs_provenance="solver"))
    rows.append(BoundRow("chain_strong", val("tau_t"), val("tau_strong"),
                         lhs_provenance="solver", rhs_provenance="solver"))
    return BoundReport(instance_id, cc, tuple(rows), tuple(skipped))


@dataclass(frozen=True)
class SweepRow:
    k: int
    n: int
    m: int
    reference: float             # ln(k)/k
    upper_per_nm: float          # closed-form strong-transversal bound scaled
    mc_mean_per_nm: float
    mc_valid: bool
    best_ratio: Fraction
    best_shape: tuple[int, int]

    def as_dict(self) -> dict:
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        d["best_ratio"] = str(self.best_ratio)
        d["best_shape"] = list(self.best_shape)
        return d


def asymptotic_sweep(k_list, c: float, trials: int, seed: int,
                     jobs: int = 1) -> list[SweepRow]:
    """Desk-scale bracketing of the logarithmic decay of the best ratio.

    Per uniformity k: Monte Carlo the randomized strong transversal on one
    n = m = 2k instance (upper side, scaled by n+m), solve the two-edge
    instance on k + 1 vertices exactly (lower side: tau_t = 2, so its ratio
    is 2/(k + 3), which meets the tight bounds 2/5 at k = 2 and 1/3 at
    k = 3), and report ln(k)/k between them.
    """
    out = []
    for pos, k in enumerate(k_list):
        H = random_hypergraph(
            k, 2 * k, 2 * k, split_seed(seed, 2 * pos), require_class=True
        )
        rep = strong_transversal_trials(
            H, c, trials, split_seed(seed, 2 * pos + 1), jobs=jobs
        )
        nm = H.n + H.m
        W = Hypergraph(k + 1, (tuple(range(k)), tuple(range(1, k + 1))))
        out.append(
            SweepRow(
                k=k,
                n=H.n,
                m=H.m,
                reference=math.log(k) / k,
                upper_per_nm=rep.bound / nm,
                mc_mean_per_nm=rep.mean_size / nm,
                mc_valid=rep.all_valid,
                best_ratio=Fraction(tau_t(W).value, W.n + W.m),
                best_shape=(W.n, W.m),
            )
        )
    return out
