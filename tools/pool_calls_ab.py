"""In-process A/B of the exact core's calls on two trees, by call kind.

    python3 tools/pool_calls_ab.py --parent TREE --change TREE

Each tree is a checkout (for example made with `git archive`) holding
`src/hypertrans/`; the parent tree also holds `perfbench/`.  The arguments
of every `_min_selection` call of one exact-solve pass and of one
pool-enumerate pass are captured first, by running each pass once at seed
SEED with the parent's perfbench and package (the set-ups write instance
files under the parent's perfbench/out).  The calls of each pass, its
population, fall into kinds: gamma_t's calls (nb given), the side
constraint's (total set), demand 2 and plain demand 1, each apart for
calls whose requirements form one part and for calls with several parts
(groups of requirements linked by shared items).  Then both packages are
loaded side by side under names of their own, and each of ROUNDS rounds
runs every kind's calls on each side, in chunks of CHUNK calls that
alternate between the sides, so that a slow stretch of a shared host hits
both alike: the parent goes first in odd rounds and the change in even
ones.  Every call must give the same size, or the same InfeasibleError
text, on both sides; node counts may differ, and so may the mask, since a
change to the search can find another optimum.  So the change's mask is
checked on its own against the call's arguments: it must name only the
call's items, hold at least `need` items of every requirement mask and,
with the side constraint, give every picked item another picked item
inside some requirement.  Prints, per population and then per kind, the
number of calls and of masks that moved, the search nodes of all its
calls on each side (flagged NODES DIFFER when the totals differ), the
median and the minimum seconds of a round per side, the ratio of the
medians and the rounds the change won.

A third population, small calls, runs the package's public calls on the
pool's instances (the `hg` texts of pool-enumerate's set-up at SEED, each
parsed by each side, the two sides taking turns instance by instance, so
that neither side's inputs all come after the other's): `tt_2uniform` or `tt_kuniform` by the instance's k,
`onh`, `two_section`, `to_hypergraph` on that side's 2-section,
`class_floor_check`, `random_hypergraph(k, n, m, i, require_class=True)`
with the instance's k, n and m and its position i as the seed,
`verify_bounds`, and `verify_bounds` again with its module's `solve`
answered from a table of that side's own results, which times the report
outside its four solves.  Every call must give `==` output on both sides,
compared as plain tuples and dicts; the rounds and chunks are as above,
and each kind's line also gives the median microseconds of one call.

Calibration: an A/A run, on two copies of one tree, reads every kind
within about 4% of 1.00 with the second tree faster in 5 to 15 of 20
rounds; the kinds whose round takes a few milliseconds spread the most,
so a gap that small on one of them shows nothing by itself.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

SEED = 1
ROUNDS = 20
CHUNK = 500
POPULATIONS = ("exact-solve", "pool-enumerate")
SMALL = "small calls"
SMALL_KINDS = ("tt", "onh", "two_section", "to_hypergraph",
               "class_floor_check", "random_hypergraph", "verify_bounds",
               "verify_bounds outside its solves")


def _capture(tree: Path) -> tuple[dict[str, list[tuple]], list[str]]:
    """Population -> (nitems, reqs, total, nb) of each _min_selection call
    of one pass of that workload of tree, and the hg text of each of the
    pool's instances."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    cwd = os.getcwd()
    os.chdir(tree)   # the set-ups write their instance files below the tree
    try:
        import workloads
        from record import Recorder
        from spans import NullTracer
        solve = sys.modules["hypertrans.solve"]
        inner = solve._min_selection
        calls = []

        def spy(nitems, reqs, total=False, nb=None):
            calls.append((nitems, reqs, total, nb))   # none is mutated
            return inner(nitems, reqs, total, nb)

        out = {}
        for population in POPULATIONS:
            setup, run = workloads.WORKLOADS[population]
            inputs = setup(SEED, NullTracer())
            solve._min_selection = spy
            run(inputs, Recorder(NullTracer()))
            solve._min_selection = inner
            out[population], calls = calls, []
        texts = [args[0] for _, fn, args in
                 workloads.pool_setup(SEED, NullTracer())
                 if fn is workloads._pool_item]
        return out, texts
    finally:
        os.chdir(cwd)


def _kind(args) -> str:
    """The call kind of (nitems, reqs, total, nb), and whether its
    requirements form one part or several."""
    _, reqs, total, nb = args
    if nb is not None:
        kind = "gamma_t"
    elif total:
        kind = "side constraint"
    elif any(need > 1 for _, need in reqs):
        kind = "demand 2"
    else:
        kind = "demand 1"
    groups = []   # the items of each group of linked requirements so far
    for mask, _ in reqs:
        rest = [g for g in groups if not g & mask]
        for g in groups:
            if g & mask:
                mask |= g
        groups = rest + [mask]
    return f"{kind}, {'one part' if len(groups) < 2 else 'several parts'}"


def _load(tree: Path, alias: str) -> SimpleNamespace:
    """tree's hypertrans, imported as the package `alias`; its modules by
    name (the package's own `solve` is the function, not the module)."""
    package = tree / "src" / "hypertrans"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{
        name: importlib.import_module(f"{alias}.{name}")
        for name in ("construct", "hcore", "solve", "xform", "xsearch")})


def _inputs(sides, texts) -> dict[str, tuple]:
    """Side -> (instances, their 2-sections, their solve answers) from the
    pool's texts, built in turns: both sides build each instance back to
    back, the parent first at even positions and the change first at odd
    ones.  Built one side after the other, the side built second ran its
    small calls faster on code both sides shared: in A/A runs on two copies
    of one tree, to_hypergraph read 0.94-0.96 with that side faster in 19
    or 20 of 20 rounds, whichever package was loaded first."""
    built = {side: ([], [], {}) for side in sides}
    for i, text in enumerate(texts):
        for side in list(sides)[::1 if i % 2 == 0 else -1]:
            pkg, (hs, graphs, answers) = sides[side], built[side]
            H = pkg.hcore.from_text(text)
            hs.append(H)
            graphs.append(pkg.xform.two_section(H))
            for name in ("tau", "tau_t", "tau_strong", "gamma_t"):
                answers[id(H), name] = pkg.solve.solve(H, name)
    return built


def _small_calls(pkg, hs, graphs, answers) -> dict[str, tuple]:
    """Small-call kind -> (function, argument tuples, plain) on pkg and its
    side's inputs, where plain(result) is the result as tuples and dicts,
    comparable across the two packages."""
    xsearch, real = pkg.xsearch, pkg.xsearch.solve

    def tt(H):
        k = len(H.edges[0])
        return (pkg.construct.tt_2uniform if k == 2 else pkg.construct.tt_kuniform)(H)

    def tabled(H):
        xsearch.solve = lambda H, name: answers[id(H), name]
        try:
            return xsearch.verify_bounds(H)
        finally:
            xsearch.solve = real

    def hg(H):
        return H.n, H.edges, H.labels, H.had_multi_edge

    each = [(H,) for H in hs]
    return {
        "tt": (tt, each, lambda r: (r.set, r.guarantee, r.trace)),
        "onh": (pkg.xform.onh, each, hg),
        "two_section": (pkg.xform.two_section, each,
                        lambda G: (G.n, G.edges, G.edge_labels)),
        "to_hypergraph": (pkg.xform.Graph.to_hypergraph,
                          [(G,) for G in graphs], hg),
        "class_floor_check": (pkg.hcore.class_floor_check, each,
                              lambda rows: [r.as_dict() for r in rows]),
        "random_hypergraph": (xsearch.random_hypergraph,
                              [(len(H.edges[0]), H.n, H.m, i, True)
                               for i, H in enumerate(hs)], hg),
        "verify_bounds": (xsearch.verify_bounds, each, lambda r: r.as_dict()),
        "verify_bounds outside its solves": (tabled, each,
                                             lambda r: r.as_dict()),
    }


def _outcomes(solve, calls) -> list:
    """(size, mask, nodes) of each call, or its InfeasibleError text."""
    out = []
    for args in calls:
        try:
            out.append(solve._min_selection(*args))
        except solve.InfeasibleError as exc:
            out.append(str(exc))
    return out


def _nodes(outcomes) -> int:
    return sum(o[2] for o in outcomes if not isinstance(o, str))


def _meets(args, size, mask) -> bool:
    """mask is a selection of size items meeting the call's requirements
    and, with total set, its side constraint, checked from the arguments
    alone."""
    nitems, reqs, total, _ = args
    if mask.bit_count() != size or mask >> nitems:
        return False
    if any((m & mask).bit_count() < need for m, need in reqs):
        return False
    if total:
        seen = 0   # picks that share a requirement with another pick
        for m, _ in reqs:
            if (m & mask).bit_count() >= 2:
                seen |= m & mask
        return seen == mask
    return True


def _run(fn, calls, error) -> float:
    t = perf_counter()
    for args in calls:
        try:
            fn(*args)
        except error:
            pass
    return perf_counter() - t


def _report(name, calls, moved, nodes, times) -> None:
    """One kind's line; moved and nodes are None for the small calls, which
    give microseconds per call instead."""
    parent, change = times["parent"], times["change"]
    ratio = statistics.median(change) / statistics.median(parent)
    wins = sum(c < p for c, p in zip(change, parent))
    if nodes is None:
        work = "per call {:.1f} -> {:.1f} us; ".format(
            *(statistics.median(times[side]) / len(calls) * 1e6
              for side in ("parent", "change")))
    else:
        flag = " NODES DIFFER" if nodes["parent"] != nodes["change"] else ""
        work = (f"{moved} masks moved; nodes {nodes['parent']} -> "
                f"{nodes['change']}{flag}; ")
    print(f"  {name}: {len(calls)} calls, {work}"
          f"median {statistics.median(parent):.4f} -> "
          f"{statistics.median(change):.4f} s (min {min(parent):.4f} -> "
          f"{min(change):.4f}), change / parent {ratio:.3f}, change faster "
          f"in {wins} of {len(change)} rounds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    captured, texts = _capture(args.parent.resolve())
    sides = {"parent": _load(args.parent.resolve(), "ab_parent"),
             "change": _load(args.change.resolve(), "ab_change")}
    groups = {}   # (population, kind) -> its calls, kinds in sorted order
    for population, calls in captured.items():
        for call in sorted(calls, key=_kind):
            groups.setdefault((population, _kind(call)), []).append(call)
    moved = dict.fromkeys(groups, 0)
    nodes = {}   # (population, kind) -> side -> the nodes of its calls
    for key, calls in groups.items():
        want = _outcomes(sides["parent"].solve, calls)
        got = _outcomes(sides["change"].solve, calls)
        nodes[key] = {"parent": _nodes(want), "change": _nodes(got)}
        differ = []
        for i, (a, b) in enumerate(zip(want, got)):
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    differ.append(i)
            elif a[0] != b[0] or not _meets(calls[i], b[0], b[1]):
                differ.append(i)
            else:
                moved[key] += a[1] != b[1]
        if differ:
            i = differ[0]
            print(f"error: {len(differ)} of {len(calls)} {key[0]} calls of "
                  f"kind {key[1]!r} differ in size or error text, or give a "
                  f"mask that fails the check; first, call {i}: parent "
                  f"{want[i]!r}, change {got[i]!r}", file=sys.stderr)
            return 1
    # (population, kind) -> side -> (function, its argument tuples)
    runs = {key: {side: (pkg.solve._min_selection, calls)
                  for side, pkg in sides.items()}
            for key, calls in groups.items()}
    inputs = _inputs(sides, texts)
    small = {side: _small_calls(pkg, *inputs[side])
             for side, pkg in sides.items()}
    for kind in SMALL_KINDS:
        out = {}
        for side in sides:
            fn, calls, plain = small[side][kind]
            out[side] = [plain(fn(*call)) for call in calls]
        differ = [i for i, (a, b) in enumerate(zip(out["parent"], out["change"]))
                  if a != b]
        if differ:
            i = differ[0]
            print(f"error: {len(differ)} of {len(texts)} {kind} calls differ; "
                  f"first, on instance {i}: parent {out['parent'][i]!r}, "
                  f"change {out['change'][i]!r}", file=sys.stderr)
            return 1
        runs[SMALL, kind] = {side: small[side][kind][:2] for side in sides}
    times = {key: {side: [] for side in sides} for key in runs}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        gc.collect()
        for key, per_side in runs.items():
            spent = dict.fromkeys(order, 0.0)
            for i in range(0, len(per_side["parent"][1]), CHUNK):
                for side in order:
                    fn, calls = per_side[side]
                    spent[side] += _run(fn, calls[i:i + CHUNK],
                                        sides[side].solve.InfeasibleError)
            for side in order:
                times[key][side].append(spent[side])
    print("same size or error text and a valid mask on every call: yes")
    print("== output of every small call on both sides: yes")
    for population in captured:
        keys = [key for key in groups if key[0] == population]
        total = {side: [sum(times[key][side][r] for key in keys)
                        for r in range(ROUNDS)] for side in sides}
        print(f"{population}:")
        _report("all", captured[population],
                sum(moved[key] for key in keys),
                {side: sum(nodes[key][side] for key in keys)
                 for side in sides}, total)
        for key in keys:
            _report(key[1], groups[key], moved[key], nodes[key], times[key])
    print(f"{SMALL} on the pool's {len(texts)} instances:")
    for kind in SMALL_KINDS:
        _report(kind, texts, None, None, times[SMALL, kind])
    return 0


if __name__ == "__main__":
    sys.exit(main())
