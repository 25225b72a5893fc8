"""In-process A/B of the exact core's small calls on two trees.

    python3 tools/pool_calls_ab.py --parent TREE --change TREE

Each tree is a checkout (for example made with `git archive`) holding
`src/hypertrans/`; the parent tree also holds `perfbench/`.  The arguments
of every `_min_selection` call of one pool-enumerate pass are captured
first, by running that pass once at seed SEED with the parent's perfbench
and package (its set-up writes instance files under the parent's
perfbench/out).  Then both packages are loaded side by side under names of
their own, and each of ROUNDS rounds runs all captured calls on each side,
in chunks of CHUNK calls that alternate between the sides, so that a slow
stretch of a shared host hits both alike: the parent goes first in odd
rounds and the change in even ones.  Every call must give the same size,
or the same InfeasibleError text, on both sides; node counts may differ,
and so may the mask, since a change to the search can find another optimum.
So the change's mask is checked on its own against the call's arguments:
it must name only the call's items, hold at least `need` items of every
requirement mask and, with the side constraint, give every picked item
another picked item inside some requirement.  Prints the number of calls
and of masks that moved, the median and the minimum seconds of a round per
side, the ratio of the medians and the rounds the change won.  Standard
library only.
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


def _capture(tree: Path) -> list[tuple]:
    """(nitems, reqs, total, nb) of each _min_selection call of one
    pool-enumerate pass of tree."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    cwd = os.getcwd()
    os.chdir(tree)   # the set-up writes its instance files below the tree
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

        solve._min_selection = spy
        setup, run = workloads.WORKLOADS["pool-enumerate"]
        run(setup(SEED, NullTracer()), Recorder(NullTracer()))
        solve._min_selection = inner
        return calls
    finally:
        os.chdir(cwd)


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    calls = _capture(args.parent.resolve())
    sides = {"parent": _load(args.parent.resolve(), "ab_parent"),
             "change": _load(args.change.resolve(), "ab_change")}
    want = _outcomes(sides["parent"], calls)
    got = _outcomes(sides["change"], calls)
    differ, moved = [], 0
    for i, (a, b) in enumerate(zip(want, got)):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                differ.append(i)
        elif a[0] != b[0] or not _meets(calls[i], *b):
            differ.append(i)
        else:
            moved += a[1] != b[1]
    if differ:
        i = differ[0]
        print(f"error: {len(differ)} of {len(calls)} calls differ in size "
              f"or error text, or give a mask that fails the check; first, "
              f"call {i}: parent {want[i]!r}, change {got[i]!r}",
              file=sys.stderr)
        return 1
    times = {side: [] for side in sides}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        spent = dict.fromkeys(order, 0.0)
        gc.collect()
        for i in range(0, len(calls), CHUNK):
            for side in order:
                spent[side] += _run(sides[side], calls[i:i + CHUNK])
        for side in order:
            times[side].append(spent[side])
    print(f"calls {len(calls)}, same size or error text and a valid mask: "
          f"yes; masks moved: {moved}")
    for side, ts in times.items():
        print(f"{side}: median {statistics.median(ts):.4f} s, "
              f"min {min(ts):.4f} s over {len(ts)} rounds")
    parent, change = times["parent"], times["change"]
    ratio = statistics.median(change) / statistics.median(parent)
    wins = sum(c < p for c, p in zip(change, parent))
    print(f"change / parent median {ratio:.3f}, change faster in {wins} of "
          f"{ROUNDS} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
