"""Run perfbench pairs from two trees and write BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent TREE --change TREE --label NAME \\
        --pairs pool-enumerate:1-10 --pairs exact-solve:1-4 \\
        --traced pool-enumerate:5 --traced exact-solve:1 \\
        --change-note "what the change does"

Each tree is a checkout (for example made with `git archive`) holding
`perfbench/run.py` and `src/`.  Each listed seed gives one pair: both trees
run back to back at that seed, the parent first for the 1st, 3rd, 5th ...
seed of a workload and the change first for the others, each for
BENCHMARK.json's run_seconds.  A traced pair, at most one per workload,
runs once per side with --trace 1, the parent first.  The output has the
layout of the committed BENCH files: per workload and end-to-end metric,
the quartiles of each side, the runs, the wins and losses of the change,
those wins and losses again by the side that ran first in their pair (so
an order effect shows), the median gap and the parent's IQR; per traced
workload, every per-layer metric of each side.  Besides the values digest of each pair, it compares
the value lines that the run writes to perfbench/out with every node count
masked, since pool-enumerate's CLI solve payloads carry node counts that a
change to the search moves while the values stay the same.  Standard library only; the run lines go to stderr as
they finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# a solve's node count inside a value line, as a number or, in a CLI
# payload's scalars, as a string; a change to the search moves it while
# every value stays the same
_NODES = re.compile(r'"nodes":"?\d+"?')


def _seeds(spec: str) -> tuple[str, list[int]]:
    """'name:1-10' or 'name:1,4,7' -> (name, seeds)."""
    name, _, seeds = spec.partition(":")
    out = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    if not name or not out:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {spec!r}")
    return name, out


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    summary, result = records[0], records[-1]
    out = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    lines = json.loads(out.read_text())["values"]
    masked = "\n".join(_NODES.sub('"nodes":*', line) for line in lines)
    return dict(result, values_digest=summary["values_digest"],
                masked_digest=hashlib.sha256(masked.encode()).hexdigest(),
                provenance=summary["provenance"])


def _quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _compare(declared: dict, runs: dict[str, list[dict]],
             first: list[str]) -> dict:
    """Per end-to-end metric, the comparison of the two sides' runs; first
    names the side that ran first in each pair."""
    out = {}
    for name, spec in declared.items():
        vals = {s: [round(r["metrics"][name]["value"], 4) for r in runs[s]]
                for s in SIDES}
        sign = 1 if spec["better"] == "higher" else -1
        diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
        parent, change = _quartiles(vals["parent"]), _quartiles(vals["change"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_wins": sum(d > 0 for d in diffs),
            "change_losses": sum(d < 0 for d in diffs),
            "change_wins_by_first": {
                s: sum(d > 0 for d, f in zip(diffs, first) if f == s)
                for s in SIDES},
            "change_losses_by_first": {
                s: sum(d < 0 for d, f in zip(diffs, first) if f == s)
                for s in SIDES},
            "pairs": len(diffs),
            "median_gap": round(change["median"] - parent["median"], 4),
            "parent_iqr": round(parent["q3"] - parent["q1"], 4),
            "parent_runs": vals["parent"],
            "change_runs": vals["change"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--pairs", type=_seeds, action="append", default=[])
    ap.add_argument("--traced", type=_seeds, action="append", default=[],
                    metavar="WORKLOAD:SEED")
    ap.add_argument("--change-note", default="")
    ap.add_argument("--parent-commit", default=None,
                    help="recorded as is; defaults to the parent run's git sha")
    args = ap.parse_args(argv)
    traced = dict(args.traced)
    if len(traced) != len(args.traced) or any(len(s) != 1 for s in traced.values()):
        ap.error("--traced takes one WORKLOAD:SEED per workload")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    end_to_end = {d["name"]: d for d in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    command = "python3 perfbench/run.py --workload <workload> --seed <seed> " \
              f"--seconds {seconds:g} --trace {{trace}}"

    def run(side, workload, seed, trace):
        r = _run(trees[side], workload, seed, seconds, trace)
        shown = ("items_per_s", "solve.nodes")
        note = {k: round(r["metrics"][k]["value"], 4) for k in shown if k in r["metrics"]}
        print(f"{workload} seed {seed} trace {trace} {side}: {note} "
              f"digest {r['values_digest'][:12]} correct {r['correct']}",
              file=sys.stderr, flush=True)
        return r

    workloads = {}
    parent_sha = args.parent_commit
    for workload, seeds in args.pairs:
        runs = {s: [] for s in SIDES}
        first = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                runs[side].append(run(side, workload, seed, 0))
        parent_sha = parent_sha or runs["parent"][0]["provenance"]["git_sha"]
        every = runs["parent"] + runs["change"]
        workloads[workload] = {
            "seeds": seeds,
            "first_side": first,
            "attempted_per_pass": runs["parent"][0]["attempted"],
            "failed": {s: max(r["failed"] for r in runs[s]) for s in SIDES},
            "correct": all(r["correct"] for r in every),
            "digests_equal_per_seed": all(
                p["values_digest"] == c["values_digest"]
                for p, c in zip(runs["parent"], runs["change"])),
            "values_equal_per_seed_nodes_masked": all(
                p["masked_digest"] == c["masked_digest"]
                for p, c in zip(runs["parent"], runs["change"])),
            "metrics": _compare(end_to_end, runs, first),
        }
    record = {
        "label": args.label,
        "change": args.change_note,
        "parent_commit": parent_sha,
        "host": f"{os.cpu_count()}-vCPU {platform.system()} host, "
                f"Python {platform.python_version()}",
        "command": command.format(trace=0),
        "protocol": "each commit in its own fresh tree; one pair per seed, "
                    "parent and change run back to back, alternating which "
                    "runs first; quartiles by statistics.quantiles("
                    "method='inclusive'); a win is a pair where the change "
                    "reads better",
        "workloads": workloads,
    }
    if traced:
        record["traced"] = {
            "command": command.format(trace=1),
            "note": "one traced run per side, parent first; single runs, "
                    "so host drift shows in trace.overhead_frac",
            **{workload: {"seed": seed, **{
                side: {k: round(m["value"], 4)
                       for k, m in run(side, workload, seed, 1)["metrics"].items()}
                for side in SIDES}} for workload, (seed,) in traced.items()},
        }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
