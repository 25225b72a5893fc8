"""Exact solvers for six covering invariants, with witnesses.

tau, tau_t, tau_strong, gamma, gamma_t on hypergraphs and ec_t on graphs all
reduce to one problem: pick a minimum set of items meeting coverage
requirements (each a candidate mask plus a demand of 1 or 2), optionally under
the side constraint that every picked item has a picked neighbor.  One
branch-and-bound core solves that; thin wrappers build the encodings, and a
separate brute-force oracle checks the textbook definitions subset by subset.

The core bounds each node by a packing and branches on the requirement with
the least slack (candidates less deficit), trying first the candidate that
lies in the most open requirements (the lower index on ties).  The packing
walks the open requirements from the least slack up; each one adds the
picks it still needs outside the candidates of those already counted, and
joins them if it adds any.  At demand 1 that is a packing of disjoint
requirements, and at demand 2 a requirement sharing one item with them
still counts one pick.  A node looks only at the requirements still open at
its parent, since a selection only grows.  At the root it drops every item
that kept items can stand in for, in one pass from the highest index down
(the column reduction of set covering, Garfinkel and Nemhauser, Integer
Programming, 1972), and keeps every requirement as given.  The one walk
over the requirements' items that feeds it also gives each item's
requirement bits, which every later step reads.  tau, gamma and gamma_t
are plain hitting sets (demand 1, no side constraint): there an item goes
when another kept item lies in all of its requirements.  No requirement is
dropped for a tighter one (the row reduction): that frees more items only
when it alternates with the item pass to a fixpoint, about n/4 rounds of
all-pair comparisons on a path, and it saves the search few nodes.

All of this runs once per part.  For every invariant, the requirements
fall into parts linked by shared items, and items of different parts
never meet in a requirement, so they never see each other either: the
minimum is the sum of the parts' minima, as the paper's bounds add up over
components.  Each part gets its own item pass, greedy incumbent and
search, a result's witness is its parts' own witnesses side by side, and
its `nodes` is the sum over its parts.  A union then costs the sum of its
parts' searches, not their product.

The other three get a dominance rule of their own and a coverage bound at
every node: the fewest free items whose open coverages add up to the open
deficit.  tau_strong (demand 2) drops an item when two kept items lie in all
of its requirements.  tau_t and ec_t carry the side constraint, and two
items see each other exactly when a requirement holds both: a vertex's
neighbors are the union of its edges, an edge's the edges at either end.
That lets an item go when a kept item lies in all of its requirements and
has a kept neighbor besides it, and it lets the bound charge half a unit to
each pick that sees no selected item, since that pick needs another new
pick in one of its open requirements.

The search starts from a greedy incumbent and looks only for something
smaller.  Without the side constraint the greedy picks the item in the most
unmet requirements.  With it, the greedy never leaves a pick without a
picked neighbor: each step adds either one item that sees a selected item or
a free item together with a free neighbor, whichever meets more unmet
requirements per pick.  Gains only fall, so the greedy is lazy (Minoux,
1978): old scores wait on a heap and only those that could still lead are
scored again, which makes the picks of a full scan at every step in
near-linear time on a path.  There that incumbent is already optimal, and
the root's coverage bound proves it.  A root left at a gap improves it by
local search, dropping picks and trading two picks for one free item until
neither move applies (the (2,1)-swaps of Andrade, Resende and Werneck, J.
Heuristics 18, 2012).  And a search that finds an incumbent at most one
above the root bound starts again from the root, whose fixing rules then
cut the rest short.

Siblings prune each other as well.  A node skips a candidate i of its
branching requirement when a sibling j searched before it lies in every open
requirement holding i and, under the side constraint, sees every neighbor of
i other than j itself.  Any selection below i then turns into one of the
same size below j by trading i for j: j meets the open requirements that i
did, j has i's neighbor for its own, and whatever saw i sees j.  So the
skipped subtree holds nothing smaller than what j's subtree already gave,
and the search finds the same values and the same witnesses in fewer nodes.

A node at zero gap fixes items too, with the packing as its LP dual.  When
its size plus its packing bound is the incumbent less one, a selection below
it that beats the incumbent adds exactly that bound in picks, and the
packing counts all of them among the candidates of the requirements it
counted; each other free item has reduced cost 1 against a gap of 0.  So the
node keeps only those candidates in its requirements and walks them again:
it prunes when that walk reaches the incumbent, keeps restricting while the
walk reads the same bound, and stops when it reads less, since a walk that
reads less need not count every pick.  Then it bounds coverage and
branches, and its children re-derive their free items from the banned ones
as before.

A node of tau_t, tau_strong or ec_t fixes items at any gap too, with the
coverage scores as its duals.  A selection below it that beats the
incumbent adds at most t picks, t being the incumbent less the node's size
less one, and their scores reach the doubled deficit; so an item whose score
falls short of that less the t - 1 best scores is in none of them, and the
node bans it for itself and its children (reduced-cost fixing, Nemhauser
and Wolsey, Integer and Combinatorial Optimization, 1988).

gamma_t has rank-2 cuts besides (Balas and Ng, "On the set covering
polytope I", Math. Programming 43, 1989).  A total dominating set has two
items in U_u, N(u) together with the N(c) of every c in N(u): the pick c
that dominates u needs a pick of its own in N(c), and c is not in N(c).  A
root at a nonzero gap adds these cuts as entries of demand 2, and every node
bounds by the larger of the slack walk and a walk that takes the open cuts
first.  A part takes only the cuts inside its own items; one that reaches
another part is dropped.  They pay on the family expansions, where the
packing counts one pick per gadget that needs two.

Vertex sets are Python ints used as bit vectors, so width never caps n.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter

from .hcore import (
    Hypergraph, bit_indices, mask_neighborhoods, neighborhood_masks,
)
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


def _min_selection(nitems: int, reqs, total: bool = False, nb=None):
    """Minimum item set with >= need items inside each requirement mask.

    With total set, every selected item must also see another selected item,
    two items seeing each other when some requirement holds both (the side
    constraint of tau_t and ec_t, whose requirements all have demand 1).
    With nb, the open neighborhoods N(u) of the items, reqs are those
    neighborhoods in item order (gamma_t), and the search may add the
    rank-2 cuts of `_rank2_cuts`.  Returns (size, mask, nodes) or raises
    InfeasibleError.

    After the feasibility check, which sees every requirement, the
    requirements fall into parts linked by shared items.  Items of different
    parts share no requirement, so they never see each other either, and a
    selection is feasible exactly when its share of each part is.  So each
    part gets its own item pass, greedy incumbent and search, in the order
    of its first requirement, and the sizes, masks and node counts add up.
    """
    adj = mask_neighborhoods(nitems, [m for m, _ in reqs]) if total else None
    if adj is None:
        allowed = (1 << nitems) - 1
    else:
        # an item with no neighbor can never satisfy the side constraint
        allowed = 0
        for i in range(nitems):
            if adj[i]:
                allowed |= 1 << i
    # linked grows from the first mask by each mask that meets it in turn:
    # when every mask does, one part holds them all
    linked = reqs[0][0] if reqs else 0
    apart = False
    demand = 1
    for mask, need in reqs:
        if (mask & allowed).bit_count() < need:
            raise InfeasibleError(
                f"requirement {bin(mask)} wants {need} usable items, "
                f"only {(mask & allowed).bit_count()} exist"
            )
        if need > demand:
            demand = need
        if mask & linked:
            linked |= mask
        else:
            apart = True
    parts = _parts(reqs) if apart else [(reqs, linked)]
    hitting = adj is None and demand == 1
    total_size = total_mask = total_nodes = 0
    for part, items in parts:
        # one item pass and no requirement dropped: the side constraint's
        # adjacency is read off the requirements as given, and every step
        # after this one intersects their masks with kept
        kept, holds = _thin(part, adj, allowed, demand)
        greedy = _greedy(part, adj, kept, holds)
        cuts = None
        if nb is not None:
            cuts = functools.partial(_rank2_cuts, nb, kept, items)
        size, mask, nodes = _search(part, adj, kept, greedy, hitting, holds,
                                    cuts)
        total_size += size
        total_mask |= mask
        total_nodes += nodes
    return total_size, total_mask, total_nodes


def _parts(reqs) -> list:
    """(requirements, items) of each part, a group of requirements linked by
    shared items, the requirements in input order and the parts in the
    order of their first requirement."""
    parts = []
    while reqs:
        items = reqs[0][0]
        grown = True
        while grown:
            grown = False
            for mask, _ in reqs:
                if mask & items and mask & ~items:
                    items |= mask
                    grown = True
        part, rest = [reqs[0]], []   # the first even when its mask is empty
        for req in reqs[1:]:
            (part if req[0] & items else rest).append(req)
        parts.append((part, items))
        reqs = rest
    return parts


def _rank2_cuts(nb, allowed, items) -> list[int]:
    """Per item u, U_u = N(u) | the N(c) of every c in N(u), restricted to
    allowed, without repeats, for each U_u inside items, the items of one
    part: every total dominating set has two items in U_u.  Whichever pick
    c dominates u lies in N(u), and c needs a pick of its own inside N(c),
    which c is not in.

    The search of the part takes the masks, each once, in the order of
    their first u, as entries of demand 2.  A U_u inside the part's items
    holds N(u) and each N(c), so these are requirements of the part, and
    its selection meets them.  A U_u reaching another part rests on a
    requirement of that part, so it is dropped, not restricted: on a
    bipartite graph every U_u spans both sides, which are two parts.
    Restricted to allowed, a kept cut still holds: the part's requirements
    are its N(v) as given, and a selection inside allowed that meets them
    has its two items in U_u inside U_u & allowed.
    """
    cuts = {}
    for nu in nb:
        mask = nu
        for c in bit_indices(nu):
            mask |= nb[c]
        if not mask & ~items:
            cuts[mask & allowed] = None
    return list(cuts)


def _thin(reqs, adj, allowed, demand) -> tuple[int, list[int]]:
    """(kept, holds): allowed less the items that kept items stand in for,
    tested one at a time from the highest index down, so that a tie keeps
    the lower index, and per item index the bits of the requirements
    holding it among allowed.  Both come from one walk over the
    requirements' items.

    Without adj, item i goes when at least `demand` other kept items, that
    many as the largest demand of all, lie in every requirement holding i:
    one of them missing from a selection can take i's place, and with all of
    them in it, i is spare.  At demand 1 this keeps exactly the items no
    other item dominates, the lowest index of each equal signature.  With
    adj (demand 1, adj[i] the union of the requirements holding i, less i),
    i goes when a kept j lies in every requirement holding i and j has a
    kept neighbor other than i: j takes i's place, or j's neighbor does when
    j is already selected, and every neighbor of i sees j.
    """
    common = [-1] * allowed.bit_length()   # item -> AND of its requirements
    holds = [0] * allowed.bit_length()
    kept = 0
    for r, (mask, _) in enumerate(reqs):
        bit = 1 << r
        rest = mask & allowed   # inline, not bit_indices: this loop is hot
        kept |= rest
        while rest:
            b = rest & -rest
            rest ^= b
            i = b.bit_length() - 1
            common[i] &= mask
            holds[i] |= bit
    rest = kept
    while rest:   # from the highest index down
        i = rest.bit_length() - 1
        b = 1 << i
        rest ^= b
        others = common[i] & kept & ~b
        if not others:
            continue
        if adj is None:
            if others.bit_count() >= demand:
                kept ^= b
            continue
        for j in bit_indices(others):
            if adj[j] & kept & ~b:
                kept ^= b
                break
    return kept, holds


def _greedy(reqs, adj, allowed, holds) -> int:
    """A selection meeting every requirement, raising InfeasibleError when
    no usable item can take it further.

    Without adj, it repeatedly picks the item in the most unmet requirements,
    the lowest index on ties.  With adj (the side constraint, demand 1) no
    pick is ever left without a selected neighbor: each step takes the best
    of two kinds of move, gains doubled to stay integral, the lower item
    and then the lower partner on ties:
    - a free item that already sees a selected item, at twice its gain;
    - a free item that sees no selected item, together with a free usable
      neighbor, its partner, at the gain of the pair.
    A gain is the number of unmet requirements met, read from holds.

    It is lazy (Minoux's accelerated greedy, LNCS 7, 1978) and makes the
    same picks as a scan of every move at every step.  A move is scored as
    (-value, item, partner), partner -1 for a lone item, so the best move
    is the least.  Gains only fall as requirements are met, so a score kept
    from before a pick bounds its item's best move now.  Those wait on a
    heap, and an item's best move is scored afresh only while its old score
    still beats the best move scored since the last pick, which is taken
    once none does.  The one exception is an item that comes to see a pick,
    which may be worth more alone than with any partner: every such item is
    scored afresh before the next pick.
    """
    sel = near = 0   # the selection, and with adj the items that see it
    unmet = (1 << len(reqs)) - 1   # bits of the requirements short of need
    short = [need for _, need in reqs]   # picks each one still needs
    heap = []    # the moves scored before the last pick
    top = None   # the best move scored since the last pick
    fresh = allowed   # the items to score before the next pick
    while unmet:
        if fresh:
            b = fresh & -fresh
            fresh ^= b
            i = b.bit_length() - 1
        elif heap and (top is None or heap[0] < top):
            i = heappop(heap)[1]
            if sel >> i & 1:
                continue
        elif top is not None:   # no other move can beat it
            _, i, best = top
            top = None
            if adj is None:
                sel |= 1 << i
                for r in bit_indices(holds[i] & unmet):
                    short[r] -= 1
                    if not short[r]:
                        unmet ^= 1 << r
                continue
            seen = near
            for p in (i,) if best < 0 else (i, best):   # demand 1
                sel |= 1 << p
                unmet &= ~holds[p]
                near |= adj[p]
            fresh = near & ~seen & allowed & ~sel
            continue
        else:
            r = (unmet & -unmet).bit_length() - 1
            if adj is None:
                raise InfeasibleError(
                    f"requirement {bin(reqs[r][0])} has too few usable items"
                )
            raise InfeasibleError(
                f"requirement {bin(reqs[r][0])} has no usable item with "
                f"a usable neighbor"
            )
        value, best = 0, -1   # item i's best move now
        if adj is None:
            value = (holds[i] & unmet).bit_count()
        elif adj[i] & sel:
            value = 2 * (holds[i] & unmet).bit_count()
        else:
            rest = adj[i] & allowed & ~sel   # inline: this loop is hot
            while rest:
                b = rest & -rest
                rest ^= b
                j = b.bit_length() - 1
                gain = ((holds[i] | holds[j]) & unmet).bit_count()
                if gain > value:
                    value, best = gain, j
        if value:
            move = (-value, i, best)
            if top is None:
                top = move
            elif move < top:
                heappush(heap, top)
                top = move
            else:
                heappush(heap, move)
    return sel


_SLACK = itemgetter(0)   # key of an active entry: its slack


def _packing(active) -> tuple[int, int]:
    """(lb, used): a lower bound on the new picks that active entries
    (slack, candidates, deficit) need, slack being the candidate count less
    the deficit, and the union of the candidates of the entries it counted.

    Walking the entries by increasing slack, an entry whose deficit d
    exceeds the number of its candidates already in `used` needs that many
    more picks outside `used`; it adds them and joins `used`.  The picks
    counted for different entries are disjoint, so the sum is sound for any
    mix of demands.  At demand 1 it is the packing of disjoint requirements.

    Every counted pick lies in `used`: an entry's d picks outside the `used`
    of its turn lie among its own candidates, which then join it.  So a
    selection that adds exactly lb picks adds them all inside `used`.  That
    holds only for the lb of this walk: being greedy by slack, the walk can
    read less on entries whose candidates were cut down, and a selection
    adding more picks than it read can put the rest outside its `used`.
    """
    lb = 0
    used = 0
    for _, cand, d in sorted(active, key=_SLACK):
        shared = cand & used
        if shared:
            if d == 1:   # met by a shared candidate, no count needed
                continue
            d -= shared.bit_count()
            if d <= 0:
                continue
        lb += d
        used |= cand
    return lb, used


def _cuts_first(active, ncut, span) -> tuple[int, int]:
    """`_packing` of active, or of the walk that takes its last ncut entries,
    the open cuts, first when that walk reads more.  span exceeds every
    slack, so lowering the cuts' slacks by it walks them first and still by
    slack among themselves."""
    lb, used = _packing(active)
    k = len(active) - ncut
    lb2, used2 = _packing(active[:k] + [(slack - span, cand, d)
                                        for slack, cand, d in active[k:]])
    if lb2 > lb:
        return lb2, used2
    return lb, used


def _coverage(scores, scored, low, need, t):
    """The coverage bound and its fixing: None when no t picks can reach
    need, else the mask of the items that no t such picks hold.

    scores are the positive scores of the free items in increasing item
    order, scored the mask of those items, and low the mask of the free
    items with none.  The picks' scores must add up to need.  An item whose
    score falls short of need less the t - 1 best scores cannot be one of
    them; the items are walked only when the lowest score does.
    """
    ranked = sorted(scores, reverse=True)
    reach = sum(ranked[:t])
    if reach < need:
        return None
    # need less the t - 1 best scores: the t-th best one is back in
    floor = need - reach + (ranked[t - 1] if len(ranked) >= t else 0)
    fixed = low if floor > 0 else 0
    if ranked and ranked[-1] < floor:
        for score, i in zip(scores, bit_indices(scored)):
            if score < floor:
                fixed |= 1 << i
    return fixed


def _search(reqs, adj, allowed, greedy, hitting, holds, cuts=None):
    """Depth-first branch and bound for a selection smaller than greedy, a
    selection meeting reqs.

    Returns (size, mask, nodes) of the smallest selection, greedy itself
    when nothing is smaller.  Every node is bounded by the packing of
    `_packing` and, unless the instance is a plain hitting set, by a
    coverage count.  It runs once per part of `_min_selection`, whose
    requirements are linked by shared items at the root; a node never
    splits them again.

    A node gets its parent's open requirements as (bit, mask, need) and
    hands the ones it leaves open to its children.  It branches on the open
    requirement with the least slack, its candidate count less its deficit,
    and tries the candidates in decreasing order of how many open
    requirements hold them, the lower index first on ties.  Every order is
    complete: each tried candidate is banned from later siblings, which
    only have to cover the requirement without it.

    The search runs on one explicit stack, so its depth costs no Python
    frames.  A branching node puts a generator of its children on the stack,
    and the loop at the end takes the next child from the top generator,
    evaluates it, and pushes that child's own generator when it branches in
    turn.  A generator resumes only once the subtree of its last child is
    done, and then yields no more children when that subtree found a
    selection of the child's size, since later siblings are no smaller.  It
    also drops a candidate i, banned like a tried one, when an earlier tried
    sibling j stands in for it: j lies in every open requirement holding i
    (`holds[i] & opened & ~holds[j] == 0`) and, with adj, sees every
    neighbor of i but itself.  Trading i for j maps each selection below i
    to one of the same size below j, which was searched already, so no
    incumbent is ever found below i and skipping it changes no result, only
    the node count.

    A node at zero gap, size + lb == best_size - 1 for its packing bound lb,
    looks only inside the `used` of its packing walk.  A selection below it
    that beats the incumbent adds at most best_size - 1 - size = lb picks
    and, by the bound, at least lb, so exactly lb; the walk counts lb picks
    inside `used` (see `_packing`), so none lies outside.  The node sets
    free &= used, restricts each entry's candidates to `used` and recomputes
    its slack: every selection it can miss adds an item outside `used`, so
    it does not beat the incumbent.  Then it walks the restricted entries
    again, for lb2 and a new `used`.  Every selection that beats the
    incumbent meets the restricted entries with its lb picks, so it adds at
    least lb2 of them: the node returns when size + lb2 reaches best_size.
    Else lb2 <= lb.  When lb2 == lb, the argument above holds for the new
    walk, so the node restricts to its `used` in turn, and so on while the
    restriction still drops a free item.  When lb2 < lb it stops there and
    keeps the last restriction: a selection adding lb picks has lb - lb2 of
    them that the new walk did not count, and those can lie outside its
    `used`.  Either way the entries the node goes on with pack below the
    incumbent, and it bounds coverage and branches on them.  Each
    child gets banned and the open requirements as before and re-derives
    its free items.  If best_size falls while the node's generator is live,
    a selection beating the new incumbent would add fewer than lb picks,
    which the bound rules out, so a smaller incumbent only tightens the
    rule.

    A node that bounds by coverage fixes items at any gap.  Let t =
    best_size - size - 1, the most picks a selection below it that beats
    the incumbent can add.  The coverage bound rests on this: the doubled
    scores of the picks such a selection adds sum to at least twice the
    deficit, whatever their number.  So if it holds item i, score(i) plus
    the t - 1 best other scores reach twice the deficit, and the t - 1 best
    of all scores are no less.  An item whose score falls short of twice
    the deficit less the t - 1 best scores is therefore in no such
    selection, whatever the gap t - lb is: `_coverage` returns those items.
    The node adds them to banned, for its children too, takes them out of
    its entries and returns when an entry is left with a negative slack.
    Every selection below a child lies below this node, so it holds no
    banned item if it beats the incumbent.  A smaller incumbent later only
    lowers t and raises the threshold, so the bans stay sound while the
    node's generator is live.

    With cuts (gamma_t), a function giving the rank-2 cuts of
    `_rank2_cuts` that lie inside the part, a root at a nonzero gap adds
    them as entries of demand 2, with bits after the requirements' bits, so
    that they end every node's entries and pass to the children like
    requirements.  Every selection the search returns meets them (see
    `_rank2_cuts`), so the bound and the branching may use them.  A node
    bounds by the larger of the slack walk and the walk that takes the
    open cuts first (`_cuts_first`), with the `used` of the walk that gave
    it, so the zero-gap rule holds as before.  `holds` has no cut bits:
    the branching ranks candidates by requirements only, and sibling
    dominance tests only requirements, which keeps it sound.  Trading i
    for j meets every open requirement that i met, so the traded selection
    meets all the requirements, hence every cut, and it lies below j; the
    argument above needs nothing more.

    The incumbent improves twice over the greedy.  A root that branches
    hands greedy to `_local_search` and, when that returns something
    smaller, is evaluated again with it.  And when a node finds an
    incumbent whose size less one is at most the root bound, the larger of
    the root's packing walk and its fewest top coverage scores reaching its
    deficit, the stack starts again from the root: that root is at zero gap
    or prunes, so its fixing rules cut what is left of the search down at
    once.  Any incumbent leaves every rule above sound, and each restart
    lowers best_size, so the search ends.  `nodes` counts every evaluation,
    each of the root included.
    """
    best_mask, best_size = greedy, greedy.bit_count()
    root_lb = 0   # the root bound, set by the root's evaluation
    nodes = 0
    nreq = len(reqs)
    span = allowed.bit_length() + 1   # more than any slack

    def node(sel: int, size: int, banned: int, was_open):
        """Count and evaluate a node; its children's generator when it
        branches, else None."""
        nonlocal nodes, best_mask, best_size, cuts, root_lb
        nodes += 1
        free = allowed & ~banned & ~sel
        active = []    # (slack, candidates, deficit), cover constraints first
        still = []     # was_open's entries that are still open, for children
        opened = 0     # bits of the requirements with a deficit
        for req in was_open:   # sel only grows: a closed one stays closed
            bit, mask, need = req
            d = need - (mask & sel).bit_count()
            if d <= 0:
                continue
            cand = mask & free
            slack = cand.bit_count() - d
            if slack < 0:
                return
            active.append((slack, cand, d))
            still.append(req)
            opened |= bit
        lonely = 0
        if adj is not None:
            for i in bit_indices(sel):
                if adj[i] & sel:
                    continue
                cand = adj[i] & free
                if not cand:
                    return
                active.append((cand.bit_count() - 1, cand, 1))
                lonely |= 1 << i
        if not active:
            best_mask, best_size = sel, size
            return
        ncut = (opened >> nreq).bit_count()
        lb, used = (_cuts_first(active, ncut, span) if ncut
                    else _packing(active))
        if size + lb >= best_size:
            return
        if cuts is not None:   # the root of a gamma_t part
            if lb < best_size - 1:
                # at a nonzero gap the cuts join the entries, for the
                # children too, with bits after the requirements' bits; at
                # zero gap the fixing below mostly ends the search at once
                bit = 1 << nreq
                for mask in cuts():
                    active.append((mask.bit_count() - 2, mask, 2))
                    still.append((bit, mask, 2))
                    opened |= bit
                    bit <<= 1
                    ncut += 1
                lb, used = _cuts_first(active, ncut, span)
                if lb >= best_size:
                    return
            cuts = None
        if not size:
            root_lb = lb
        if size + lb == best_size - 1:
            # zero gap: whatever beats the incumbent here adds exactly lb
            # picks, all inside used, so the rest of this node looks only
            # there.  An entry the walk counted lies in used already, and one
            # it passed over kept at least its deficit there, so no slack
            # goes negative.  The restricted entries are walked again: a
            # walk reaching the incumbent prunes, one reading lb gives a
            # used that holds every pick too, and one reading less does not.
            while free & ~used:
                free &= used
                for k, (_, cand, d) in enumerate(active):
                    if cand & ~used:
                        cand &= used
                        active[k] = (cand.bit_count() - d, cand, d)
                lb2, used = (_cuts_first(active, ncut, span) if ncut
                             else _packing(active))
                if size + lb2 >= best_size:
                    return
                if lb2 < lb:
                    break
        if not hitting:
            # A new pick meets at most the open requirements holding it,
            # lonely picks' ones included.  Under the side constraint, a pick
            # that sees no selected item needs another new pick beside it in
            # a requirement open by that very fact, so it meets half a unit
            # less.  Scores are doubled to stay integral.
            scores = []   # the positive scores, in item order
            low = 0       # the items with no positive score
            rest = free   # inline, not bit_indices: this loop is hot
            while rest:
                b = rest & -rest
                rest ^= b
                i = b.bit_length() - 1
                score = 2 * (holds[i] & opened).bit_count()
                if adj is not None:
                    score += 2 * (adj[i] & lonely).bit_count()
                    if not adj[i] & sel:
                        score -= 1
                if score > 0:
                    scores.append(score)
                else:
                    low |= b
            need = 2 * sum(d for _, _, d in active)
            fixed = _coverage(scores, free & ~low, low, need,
                              best_size - size - 1)
            if fixed is None:
                return
            if not size:   # the root bound counts the fewest picks too
                reach = 0
                for fewest, score in enumerate(sorted(scores, reverse=True),
                                               1):
                    reach += score
                    if reach >= need:
                        break
                root_lb = max(lb, fewest)
            if fixed:
                banned |= fixed
                for k, (_, cand, d) in enumerate(active):
                    if cand & fixed:
                        cand &= ~fixed
                        slack = cand.bit_count() - d
                        if slack < 0:
                            return
                        active[k] = (slack, cand, d)
        return branch(sel, size, banned, active, still, opened)

    def branch(sel: int, size: int, banned: int, active, still, opened):
        slack, cand, d = min(active, key=_SLACK)
        picks = bit_indices(cand)
        if slack:   # else only the first pick is ever tried
            # most open requirements first, the lower index on ties
            picks = sorted(
                picks, reverse=True,
                key=lambda i: (holds[i] & opened).bit_count(),
            )
        out = banned
        tried = []   # the siblings searched so far
        for i in picks:
            b = 1 << i
            for j in tried:   # a searched sibling standing in for i skips it
                if holds[i] & opened & ~holds[j] == 0 and (
                        adj is None or adj[i] & ~adj[j] & ~(1 << j) == 0):
                    break
            else:
                yield sel | b, size + 1, out, still
                if size + 1 >= best_size:   # later branches are no smaller
                    return
                tried.append(i)
            out |= b
            slack -= 1
            if slack < 0:    # too few candidates left for the deficit
                return

    every = [(1 << r, mask, need) for r, (mask, need) in enumerate(reqs)]
    root_cuts = cuts

    def rooted():
        """A stack holding the root's children, after evaluating the root."""
        nonlocal cuts
        cuts = root_cuts   # gamma_t's root adds its cuts again
        children = node(0, 0, 0, every)
        return [] if children is None else [children]

    stack = rooted()
    if stack:   # a gap is left at the root
        better = _local_search(reqs, adj, allowed, holds, greedy)
        if better.bit_count() < best_size:
            best_mask, best_size = better, better.bit_count()
            stack = rooted()
    while stack:
        for child in stack[-1]:   # resumes the top generator where it was
            incumbent = best_size
            children = node(*child)
            if best_size < incumbent and best_size - 1 <= root_lb:
                # the root is now at zero gap or prunes: start again there
                stack = rooted()
                break
            if children is not None:
                stack.append(children)
                break
        else:
            stack.pop()
    return best_size, best_mask, nodes


def _local_search(reqs, adj, allowed, holds, sel) -> int:
    """sel, a selection meeting reqs, after drops and (2,1)-swaps until none
    applies (Andrade, Resende and Werneck, "Fast local search for the
    maximum independent set problem", J. Heuristics 18, 2012).

    A requirement is critical when sel holds exactly its demand in it.  A
    pick in no critical requirement drops.  Picks i and j give way to one
    free item k of allowed when k lies in every critical requirement of i
    or j, i and j share none, and k lies in every requirement that holds
    both at one above its demand: those are all the requirements that
    losing i and j leaves short.  With adj, every pick of the new selection
    must see another one.  Each pass tries the drops by increasing index,
    then the pairs (i, j) by increasing i and j, with the lowest k, and
    makes the first move that applies, so the result is deterministic and
    never larger than sel.
    """
    while True:
        for new in _moves(reqs, allowed, holds, sel):
            if adj is None or all(adj[p] & new for p in bit_indices(new)):
                sel = new
                break
        else:
            return sel


def _moves(reqs, allowed, holds, sel):
    """The selections one drop or one (2,1)-swap of `_local_search` away
    from sel, in its scan order."""
    crit = tight = 0   # bits of the requirements at demand and one above
    for r, (mask, need) in enumerate(reqs):
        over = (mask & sel).bit_count() - need
        if not over:
            crit |= 1 << r
        elif over == 1:
            tight |= 1 << r
    free = allowed & ~sel
    room = []   # (pick, the free items in all of its critical requirements)
    for i in bit_indices(sel):
        held = holds[i] & crit
        if not held:
            yield sel ^ 1 << i
        cand = free
        for r in bit_indices(held):
            cand &= reqs[r][0]
        if cand:
            room.append((i, cand))
    for x, (i, ci) in enumerate(room):
        for j, cj in room[x + 1:]:
            cand = ci & cj
            if not cand:
                continue
            both = holds[i] & holds[j]
            if both & crit:
                continue
            if both & tight:
                for r in bit_indices(both & tight):
                    cand &= reqs[r][0]
            for k in bit_indices(cand):
                yield sel ^ (1 << i | 1 << j | 1 << k)


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
    seen = set()   # members in an edge with another member
    for e in H.edges:
        hit = s.intersection(e)
        if not hit:
            return False
        if len(hit) > 1:
            seen |= hit
    return seen == s


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
        hit = s.intersection(e)
        # two members of S in e dominate all of e, one dominates the rest
        if len(hit) > 1:
            covered.update(e)
        elif hit:
            covered.update(set(e) - hit)
    return len(covered) == H.n


def is_total_edge_cover(G: Graph, F) -> bool:
    chosen = set(tuple(sorted(e)) for e in F)
    if not chosen.issubset(G.edges):
        return False
    ends = {}   # vertex -> the number of chosen edges at it
    for u, v in chosen:
        ends[u] = ends.get(u, 0) + 1
        ends[v] = ends.get(v, 0) + 1
    # a chosen edge meets another exactly when one of its ends is in two
    return len(ends) == G.n and all(ends[u] > 1 or ends[v] > 1
                                    for u, v in chosen)


_PREDICATES = {
    "tau": is_transversal,
    "tau_t": is_total_transversal,
    "tau_strong": is_strong_transversal,
    "gamma": is_dominating,
    "gamma_t": is_total_dominating,
    "ec_t": is_total_edge_cover,
}


def _finish(invariant, H_or_G, size, mask, nodes):
    witness = tuple(bit_indices(mask))   # vertices, or edge indices for ec_t
    if invariant == "ec_t":
        witness = tuple(H_or_G.edges[i] for i in witness)
    if not _PREDICATES[invariant](H_or_G, witness):
        raise RuntimeError(
            f"solver produced an invalid {invariant} witness {witness}"
        )
    return SolveResult(invariant, size, witness, nodes, "branch_and_bound")


def tau(H: Hypergraph) -> SolveResult:
    size, mask, nodes = _min_selection(H.n, [(m, 1) for m in H.edge_masks()])
    return _finish("tau", H, size, mask, nodes)


def tau_strong(H: Hypergraph) -> SolveResult:
    size, mask, nodes = _min_selection(H.n, [(m, 2) for m in H.edge_masks()])
    return _finish("tau_strong", H, size, mask, nodes)


def tau_t(H: Hypergraph) -> SolveResult:
    size, mask, nodes = _min_selection(
        H.n, [(m, 1) for m in H.edge_masks()], total=True
    )
    return _finish("tau_t", H, size, mask, nodes)


def gamma(H: Hypergraph) -> SolveResult:
    nb = neighborhood_masks(H)
    reqs = [(nb[v] | (1 << v), 1) for v in range(H.n)]
    size, mask, nodes = _min_selection(H.n, reqs)
    return _finish("gamma", H, size, mask, nodes)


def gamma_t(H: Hypergraph) -> SolveResult:
    """Total domination, solved as a hitting set of the open neighborhoods:
    a set meeting every N(v) totally dominates, members included."""
    nb = neighborhood_masks(H)
    for v in range(H.n):
        if nb[v] == 0:
            raise InfeasibleError(f"vertex {v} is isolated, nothing can dominate it")
    size, mask, nodes = _min_selection(H.n, [(m, 1) for m in nb], nb=nb)
    return _finish("gamma_t", H, size, mask, nodes)


def ec_t(G: Graph) -> SolveResult:
    """Minimum edge set covering every vertex with no chosen edge isolated."""
    deg = G.degrees()
    for v in range(G.n):
        if deg[v] == 0:
            raise InfeasibleError(f"vertex {v} is isolated, no edge covers it")
    for e in G.edges:
        if deg[e[0]] == deg[e[1]] == 1:
            raise InfeasibleError(
                f"edge {e} is its own component, it would stay isolated"
            )
    incident = [0] * G.n
    for i, (u, v) in enumerate(G.edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    size, mask, nodes = _min_selection(
        G.m, [(m, 1) for m in incident], total=True
    )
    return _finish("ec_t", G, size, mask, nodes)


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
