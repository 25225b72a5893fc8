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
number of calls and of masks that moved, the median and the minimum
seconds of a round per side, the ratio of the medians and the rounds the
change won.  Standard library only.
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

SEED = 1
ROUNDS = 20
CHUNK = 500
POPULATIONS = ("exact-solve", "pool-enumerate")


def _capture(tree: Path) -> dict[str, list[tuple]]:
    """Population -> (nitems, reqs, total, nb) of each _min_selection call
    of one pass of that workload of tree."""
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
        return out
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


def _load(tree: Path, alias: str):
    """tree's hypertrans.solve, imported as the package `alias`."""
    package = tree / "src" / "hypertrans"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(alias + ".solve")


def _outcomes(solve, calls) -> list:
    out = []
    for args in calls:
        try:
            size, mask, _ = solve._min_selection(*args)
            out.append((size, mask))
        except solve.InfeasibleError as exc:
            out.append(str(exc))
    return out


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


def _run(solve, calls) -> float:
    fn, error = solve._min_selection, solve.InfeasibleError
    t = perf_counter()
    for args in calls:
        try:
            fn(*args)
        except error:
            pass
    return perf_counter() - t


def _report(name, calls, moved, times) -> None:
    parent, change = times["parent"], times["change"]
    ratio = statistics.median(change) / statistics.median(parent)
    wins = sum(c < p for c, p in zip(change, parent))
    print(f"  {name}: {len(calls)} calls, {moved} masks moved; "
          f"median {statistics.median(parent):.4f} -> "
          f"{statistics.median(change):.4f} s (min {min(parent):.4f} -> "
          f"{min(change):.4f}), change / parent {ratio:.3f}, change faster "
          f"in {wins} of {len(change)} rounds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    captured = _capture(args.parent.resolve())
    sides = {"parent": _load(args.parent.resolve(), "ab_parent"),
             "change": _load(args.change.resolve(), "ab_change")}
    groups = {}   # (population, kind) -> its calls, kinds in sorted order
    for population, calls in captured.items():
        for call in sorted(calls, key=_kind):
            groups.setdefault((population, _kind(call)), []).append(call)
    moved = dict.fromkeys(groups, 0)
    for key, calls in groups.items():
        want = _outcomes(sides["parent"], calls)
        got = _outcomes(sides["change"], calls)
        differ = []
        for i, (a, b) in enumerate(zip(want, got)):
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    differ.append(i)
            elif a[0] != b[0] or not _meets(calls[i], *b):
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
    times = {key: {side: [] for side in sides} for key in groups}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        gc.collect()
        for key, calls in groups.items():
            spent = dict.fromkeys(order, 0.0)
            for i in range(0, len(calls), CHUNK):
                for side in order:
                    spent[side] += _run(sides[side], calls[i:i + CHUNK])
            for side in order:
                times[key][side].append(spent[side])
    print("same size or error text and a valid mask on every call: yes")
    for population in captured:
        keys = [key for key in groups if key[0] == population]
        total = {side: [sum(times[key][side][r] for key in keys)
                        for r in range(ROUNDS)] for side in sides}
        print(f"{population}:")
        _report("all", captured[population],
                sum(moved[key] for key in keys), total)
        for key in keys:
            _report(key[1], groups[key], moved[key], times[key])
    return 0


if __name__ == "__main__":
    sys.exit(main())
