"""Exact solvers for six covering invariants, with witnesses.

tau, tau_t, tau_strong, gamma, gamma_t on hypergraphs and ec_t on graphs all
reduce to one problem: pick a minimum set of items meeting coverage
requirements (each a candidate mask plus a demand of 1 or 2), optionally under
the side constraint that every picked item has a picked neighbor.  One
branch-and-bound core solves that; thin wrappers build the encodings, and a
separate brute-force oracle checks the textbook definitions subset by subset.

The core drops requirements implied by a tighter one, bounds each node by a
packing of disjoint requirements and branches on the requirement with the
fewest candidates.  tau, gamma and gamma_t are plain hitting sets (demand 1,
no side constraint), and for them it does two things more.  At the root it
drops every item that another item dominates (all of its requirements hold
that item too), alternating with requirement dominance until neither changes
anything.  At each node whose open requirements fall into groups that share
no item, it solves every group by its own search, capped by the incumbent
less what the other groups need, and adds the results.  A result's `nodes`
counts the nodes of those group searches as well.

Vertex sets are Python ints used as bit vectors, so width never caps n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .hcore import Hypergraph, neighborhood_masks
from .xform import Graph


class InfeasibleError(ValueError):
    """No selection of any size satisfies the instance."""


@dataclass(frozen=True)
class SolveResult:
    invariant: str   # tau | tau_t | tau_strong | gamma | gamma_t | ec_t
    value: int
    witness: tuple   # vertices, or (u, v) edge pairs for ec_t
    nodes: int
    method: str      # branch_and_bound | brute_force


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b


def _min_selection(nitems: int, reqs, adj):
    """Minimum item set with >= need items inside each requirement mask.

    adj is None, or per-item neighbor masks (symmetric); when given, every
    selected item must see another selected item.  Returns (size, mask,
    nodes) or raises InfeasibleError.
    """
    if adj is None:
        allowed = (1 << nitems) - 1
    else:
        # an item with no neighbor can never satisfy the side constraint
        allowed = 0
        for i in range(nitems):
            if adj[i]:
                allowed |= 1 << i
    for mask, need in reqs:
        if (mask & allowed).bit_count() < need:
            raise InfeasibleError(
                f"requirement {bin(mask)} wants {need} usable items, "
                f"only {(mask & allowed).bit_count()} exist"
            )
    reqs = _drop_implied(reqs, allowed)
    # hitting set (no side constraint, demand 1): an item whose requirements
    # all hold some other kept item can be swapped for it, and a requirement
    # lost that way can free further items
    hitting = adj is None and all(need == 1 for _, need in reqs)
    while hitting:
        allowed = _undominated(reqs)
        if all(mask & ~allowed == 0 for mask, _ in reqs):
            break                 # only items in no requirement were dropped
        before = len(reqs)
        reqs = _drop_implied(reqs, allowed)
        if len(reqs) == before:   # same requirements, same item signatures
            break
    greedy = _greedy(reqs, adj, allowed)
    size, mask, nodes = _search(reqs, adj, allowed, greedy.bit_count(), hitting)
    if mask is None:   # nothing beats the greedy selection
        mask = greedy
    return size, mask, nodes


def _drop_implied(reqs, allowed):
    """Requirements restricted to allowed, minus those implied by a tighter
    one (a subset with >= demand), in their original order so that branching
    tie-breaks stay index-based."""
    eff = sorted(
        ((mask & allowed, need) for mask, need in reqs),
        key=lambda r: (r[0].bit_count(), -r[1]),
    )
    kept: list[tuple[int, int]] = []
    for mask, need in eff:
        for km, kn in kept:
            if km & ~mask == 0 and kn >= need:
                break
        else:
            kept.append((mask, need))
    order = {r: i for i, r in enumerate((m & allowed, nd) for m, nd in reqs)}
    kept.sort(key=lambda r: order[r])
    return kept


def _undominated(reqs) -> int:
    """Items of a demand-1 hitting set that no other item dominates.

    j dominates i when every requirement holding i also holds j; between
    equal signatures the lower index survives.  The relation is a strict
    order, so every dropped item has an undominated dominator and some
    minimum selection uses undominated items only.
    """
    common: dict[int, int] = {}   # item bit -> AND of its requirements
    for mask, _ in reqs:
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            common[b] = common.get(b, mask) & mask
    kept = 0
    for b, others in common.items():
        # others are in every requirement of b; one dominates b if it has a
        # lower index, or if one of its requirements lacks b
        others ^= b
        if others and (others & (b - 1) or any(
            not common[j] & b for j in _bits(others)
        )):
            continue
        kept |= b
    return kept


def _greedy(reqs, adj, allowed) -> int:
    """Repeatedly pick the item in the most unmet requirements (lowest index
    on ties), then give every lonely pick a neighbor."""
    sel = 0
    while True:
        unmet = [mask for mask, need in reqs if (mask & sel).bit_count() < need]
        if not unmet:
            break
        best_gain, best_item = 0, -1
        for b in _bits(allowed & ~sel):
            gain = len([mask for mask in unmet if mask & b])
            if gain > best_gain:
                best_gain, best_item = gain, b
        sel |= best_item
    if adj is not None:
        while True:
            lonely = next(
                (b for b in _bits(sel) if adj[b.bit_length() - 1] & sel == 0),
                0,
            )
            if not lonely:
                break
            cand = adj[lonely.bit_length() - 1] & allowed & ~sel
            sel |= cand & -cand
    return sel


def _packing(active) -> int:
    """Disjoint requirements need disjoint picks: a matching lower bound."""
    lb = 0
    used = 0
    for cand, d in sorted(active, key=lambda a: a[0].bit_count()):
        if cand & used == 0:
            lb += d
            used |= cand
    return lb


def _components(cands) -> list[int]:
    """Item unions of the connected groups of masks (linked by shared items)."""
    groups = []
    while cands:
        comp = cands[0]
        grown = True
        while grown:
            grown = False
            for c in cands:
                if c & comp and c & ~comp:
                    comp |= c
                    grown = True
        groups.append(comp)
        cands = [c for c in cands if not c & comp]
    return groups


def _search(reqs, adj, allowed, best_size, hitting):
    """Depth-first branch and bound for a selection smaller than best_size.

    Returns (size, mask, nodes) of the smallest one, with mask None when none
    exists.  For a hitting set (demand 1, no side constraint), a node whose
    open requirements fall into groups that share no item searches each
    group on its own and adds up the results.
    """
    best_mask = None
    nodes = 0

    def dfs(sel: int, size: int, banned: int):
        nonlocal nodes, best_mask, best_size
        nodes += 1
        active = []   # (candidates, deficit), cover constraints first
        for mask, need in reqs:
            d = need - (mask & sel).bit_count()
            if d <= 0:
                continue
            cand = mask & allowed & ~banned & ~sel
            if cand.bit_count() < d:
                return
            active.append((cand, d))
        if adj is not None:
            for b in _bits(sel):
                if adj[b.bit_length() - 1] & sel:
                    continue
                cand = adj[b.bit_length() - 1] & allowed & ~banned & ~sel
                if not cand:
                    return
                active.append((cand, 1))
        if not active:
            best_mask, best_size = sel, size
            return
        if size + _packing(active) >= best_size:
            return
        if hitting:
            cands = [c for c, _ in active]
            groups = _components(cands)
            if len(groups) > 1:
                split(sel, size, cands, groups)
                return
        cand, d = min(active, key=lambda a: a[0].bit_count())
        out = banned
        rest = cand
        for b in _bits(cand):
            rest ^= b
            dfs(sel | b, size + 1, out)
            if size + 1 >= best_size:   # every later branch is at least as big
                return
            out |= b
            if rest.bit_count() < d:    # too few candidates left for the demand
                return

    def split(sel: int, size: int, cands, groups):
        # each group may use the incumbent minus what the others need at
        # least: their exact value once solved, their packing bound until
        # then.  The bounds add up to the node's own packing bound, which
        # the caller has already checked against the incumbent.
        nonlocal nodes, best_mask, best_size
        members = [[c for c in cands if c & g] for g in groups]
        bounds = [_packing([(c, 1) for c in m]) for m in members]
        total = size + sum(bounds)
        for g, m, lb in zip(groups, members, bounds):
            total -= lb
            if len(m) == 1:   # one requirement: any one of its items
                sel |= g & -g
                total += 1
                continue
            gsize, gmask, gnodes = _search(
                [(c, 1) for c in m], None, g, best_size - total, True
            )
            nodes += gnodes
            if gmask is None:
                return
            sel |= gmask
            total += gsize
        best_mask, best_size = sel, total

    dfs(0, 0, 0)
    return best_size, best_mask, nodes


def _vertices(mask: int) -> tuple[int, ...]:
    return tuple(b.bit_length() - 1 for b in _bits(mask))


# definitional predicates: deliberately set-based and encoding-free, used to
# re-check every witness and to drive the brute-force oracle

def is_transversal(H: Hypergraph, S) -> bool:
    s = set(S)
    return all(s.intersection(e) for e in H.edges)


def is_strong_transversal(H: Hypergraph, S) -> bool:
    s = set(S)
    return all(len(s.intersection(e)) >= 2 for e in H.edges)


def is_total_transversal(H: Hypergraph, S) -> bool:
    s = set(S)
    if not all(s.intersection(e) for e in H.edges):
        return False
    for v in s:
        if not any(v in e and s.intersection(e) - {v} for e in H.edges):
            return False
    return True


def is_dominating(H: Hypergraph, S) -> bool:
    s = set(S)
    covered = set(s)
    for e in H.edges:
        if s.intersection(e):
            covered.update(e)
    return len(covered) == H.n


def is_total_dominating(H: Hypergraph, S) -> bool:
    s = set(S)
    covered = set()
    for e in H.edges:
        for v in e:
            if s.intersection(e) - {v}:
                covered.add(v)
    return len(covered) == H.n


def is_total_edge_cover(G: Graph, F) -> bool:
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


_PREDICATES = {
    "tau": is_transversal,
    "tau_t": is_total_transversal,
    "tau_strong": is_strong_transversal,
    "gamma": is_dominating,
    "gamma_t": is_total_dominating,
    "ec_t": is_total_edge_cover,
}


def _finish(invariant, H_or_G, size, mask, nodes, to_witness):
    witness = to_witness(mask)
    if not _PREDICATES[invariant](H_or_G, witness):
        raise RuntimeError(
            f"solver produced an invalid {invariant} witness {witness}"
        )
    return SolveResult(invariant, size, witness, nodes, "branch_and_bound")


def tau(H: Hypergraph) -> SolveResult:
    size, mask, nodes = _min_selection(
        H.n, [(m, 1) for m in H.edge_masks()], None
    )
    return _finish("tau", H, size, mask, nodes, _vertices)


def tau_strong(H: Hypergraph) -> SolveResult:
    size, mask, nodes = _min_selection(
        H.n, [(m, 2) for m in H.edge_masks()], None
    )
    return _finish("tau_strong", H, size, mask, nodes, _vertices)


def tau_t(H: Hypergraph) -> SolveResult:
    size, mask, nodes = _min_selection(
        H.n, [(m, 1) for m in H.edge_masks()], neighborhood_masks(H)
    )
    return _finish("tau_t", H, size, mask, nodes, _vertices)


def gamma(H: Hypergraph) -> SolveResult:
    nb = neighborhood_masks(H)
    reqs = [(nb[v] | (1 << v), 1) for v in range(H.n)]
    size, mask, nodes = _min_selection(H.n, reqs, None)
    return _finish("gamma", H, size, mask, nodes, _vertices)


def gamma_t(H: Hypergraph) -> SolveResult:
    """Total domination, solved as a hitting set of the open neighborhoods:
    a set meeting every N(v) totally dominates, members included."""
    nb = neighborhood_masks(H)
    for v in range(H.n):
        if nb[v] == 0:
            raise InfeasibleError(f"vertex {v} is isolated, nothing can dominate it")
    size, mask, nodes = _min_selection(H.n, [(m, 1) for m in nb], None)
    return _finish("gamma_t", H, size, mask, nodes, _vertices)


def ec_t(G: Graph) -> SolveResult:
    """Minimum edge set covering every vertex with no chosen edge isolated."""
    deg = G.degrees()
    for v in range(G.n):
        if deg[v] == 0:
            raise InfeasibleError(f"vertex {v} is isolated, no edge covers it")
    incident = [0] * G.n
    for i, (u, v) in enumerate(G.edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    adj = [
        (incident[u] | incident[v]) & ~(1 << i)
        for i, (u, v) in enumerate(G.edges)
    ]
    for i in range(G.m):
        if adj[i] == 0:
            raise InfeasibleError(
                f"edge {G.edges[i]} is its own component, it would stay isolated"
            )
    size, mask, nodes = _min_selection(G.m, [(m, 1) for m in incident], adj)
    return _finish(
        "ec_t", G, size, mask, nodes,
        lambda m: tuple(G.edges[b.bit_length() - 1] for b in _bits(m)),
    )


_SOLVERS = {
    "tau": tau,
    "tau_t": tau_t,
    "tau_strong": tau_strong,
    "gamma": gamma,
    "gamma_t": gamma_t,
    "ec_t": ec_t,
}


def solve(obj, invariant: str) -> SolveResult:
    """Dispatch by invariant name; ec_t takes a Graph, the rest a Hypergraph."""
    if invariant not in _SOLVERS:
        raise ValueError(f"unknown invariant {invariant!r}")
    return _SOLVERS[invariant](obj)


def brute_force_oracle(obj, invariant: str, cap: int = 24) -> SolveResult:
    """Smallest witness by exhaustive subsets in (size, lex) order.

    Checks the raw definitions, sharing nothing with the branch-and-bound
    encoding.  Ground set: vertices, or edge indices for ec_t.
    """
    if invariant not in _PREDICATES:
        raise ValueError(f"unknown invariant {invariant!r}")
    pred = _PREDICATES[invariant]
    if invariant == "ec_t":
        ground = list(range(obj.m))
        materialize = lambda combo: tuple(obj.edges[i] for i in combo)
    else:
        ground = list(range(obj.n))
        materialize = tuple
    if len(ground) > cap:
        raise ValueError(f"{len(ground)} items exceeds the oracle cap {cap}")
    tested = 0
    for size in range(len(ground) + 1):
        for combo in itertools.combinations(ground, size):
            tested += 1
            witness = materialize(combo)
            if pred(obj, witness):
                return SolveResult(invariant, size, witness, tested, "brute_force")
    raise InfeasibleError(
        f"no {invariant} selection exists (all {tested} subsets checked)"
    )
