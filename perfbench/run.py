"""hypertrans benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/` of that
checkout and nowhere else.  Inputs come from --seed only.  Untraced timed
passes fill about --seconds; with --trace 1 the last of them is replaced by
one traced pass that gives the per-layer numbers.  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics (end-to-end ones
with --trace 0, per-layer ones with --trace 1).  The lines before it give
provenance, the values digest, the deterministic counts and the slowest item.
Everything a run writes goes under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
INVARIANTS = ("tau", "tau_t", "tau_strong", "gamma", "gamma_t", "ec_t")


def _provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypertrans").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                 "import hypertrans.cli; print(time.perf_counter() - t)")


def _import_seconds() -> float:
    """Import time of the package and its CLI in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                           capture_output=True, text=True, timeout=60, check=True)
    return float(probe.stdout)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(passes, setup_s, failed, attempted) -> dict:
    """Timing metrics from untraced passes only: items_per_s is every item
    over the time of every pass, and p50 and p90 are over every item latency
    of every pass.  The host's speed drifts smoothly rather than in outliers,
    so the mean over all passes is steadier than the median of a few."""
    latencies = [t for p in passes for _, t in p.latency]
    return {
        "setup_s": _metric(setup_s, "s"),
        "items_per_s": _metric(len(latencies) / sum(p.wall for p in passes), "items/s"),
        "item_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "item_p90_ms": _metric(statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "ops_ok_frac": _metric(1 - failed / attempted, "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(tracer, rec, untraced_wall, failed, attempted) -> dict:
    busy = tracer.self_times()
    calls: dict[str, int] = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1

    def total(table, name):
        """A span name's value plus those of the names nested under it."""
        return sum(v for k, v in table.items() if k == name or k.startswith(name + "."))

    c = rec.counts
    out = {}
    solve_busy, solve_calls, nodes = total(busy, "solve"), total(calls, "solve"), c["solve.nodes"]
    out["solve.nodes"] = _metric(nodes, "count")
    out["solve.us_per_node"] = _metric(solve_busy / nodes * 1e6 if nodes else 0.0, "us")
    for inv in INVARIANTS:
        out[f"solve.{inv}.nodes"] = _metric(c[f"solve.{inv}.nodes"], "count")
        out[f"solve.{inv}.busy_s"] = _metric(busy.get(f"solve.{inv}", 0.0), "s")
    out["solve.calls"] = _metric(solve_calls, "count")
    out["solve.busy_s"] = _metric(solve_busy, "s")
    out["solve.us_per_call"] = _metric(
        solve_busy / solve_calls * 1e6 if solve_calls else 0.0, "us")
    out["solve.infeasible"] = _metric(c["solve.infeasible"], "count")
    out["solve.failed"] = _metric(rec.failed_by_module["solve"], "count")
    out["xsearch.enumerate.classes"] = _metric(c["xsearch.enumerate.classes"], "count")
    out["xsearch.enumerate.busy_s"] = _metric(busy.get("xsearch.enumerate", 0.0), "s")
    out["xsearch.verify_bounds.rows"] = _metric(c["xsearch.verify_bounds.rows"], "count")
    for name in ("xsearch.canonical_key", "xsearch.verify_bounds",
                 "xsearch.random_hypergraph", "hcore.parse", "hcore.class_check",
                 "xform", "construct.tt", "construct.tec", "cli.main"):
        out[f"{name}.calls"] = _metric(total(calls, name), "count")
        out[f"{name}.busy_s"] = _metric(total(busy, name), "s")
    out["construct.failed"] = _metric(rec.failed_by_module["construct"], "count")
    out["construct.trials.count"] = _metric(c["construct.trials.count"], "count")
    out["construct.trials.busy_s"] = _metric(busy.get("construct.trials", 0.0), "s")
    out["cli.main.failed"] = _metric(rec.failed_by_module["cli"], "count")
    out["cli.stdout_bytes"] = _metric(c["cli.stdout_bytes"], "bytes")
    out["bench.item.self_s"] = _metric(busy.get("item", 0.0), "s")
    out["ops_failed_frac"] = _metric(failed / attempted, "ratio")
    out["trace.overhead_frac"] = _metric(rec.wall / untraced_wall - 1, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = ROOT / "src" / "hypertrans"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    prov = _provenance(args.seed)

    sys.path.insert(0, str(ROOT / "src"))
    import hypertrans
    import workloads
    from record import Recorder
    from spans import NullTracer, Tracer
    if Path(hypertrans.__file__).resolve().parent != package.resolve():
        print(f"error: hypertrans imported from {hypertrans.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, run = workloads.WORKLOADS[args.workload]
    null = NullTracer()
    import_times: list[float] = []
    setup_times: list[float] = []

    def set_up():
        """One timed set-up; they are spread over the run, one per pass, so
        that a slow stretch of the host does not hit all of them."""
        import_times.append(_import_seconds())
        t = perf_counter()
        inputs = setup(args.seed, null)
        setup_times.append(perf_counter() - t)
        return inputs

    def one_pass(inputs, tracer, keep_values=False):
        rec = Recorder(tracer)
        t = perf_counter()
        run(inputs, rec)
        rec.wall = perf_counter() - t
        rec.signature = rec.fingerprint()
        if not keep_values:
            rec.values = []      # peak memory must not grow with the pass count
        return rec

    # start another pass only while it, and the traced pass, should end by
    # --seconds, going by the mean cost of a pass with its set-up so far
    start = perf_counter()
    passes = [one_pass(set_up(), null, keep_values=True)]
    while (perf_counter() - start) * (len(passes) + 1 + args.trace) / len(passes) \
            <= args.seconds:
        passes.append(one_pass(set_up(), null))
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    traced = tracer = None
    if args.trace:
        tracer = Tracer()
        traced = one_pass(setup(args.seed, tracer), tracer)

    every = passes + ([traced] if traced else [])
    signatures = {rec.signature for rec in every}
    # one pass's counts: they repeat in every pass (the signature checks it),
    # so they depend on the seed only, never on how many passes fitted
    attempted, failed = every[0].attempted, every[0].failed
    unexpected = [u for rec in every for u in rec.unexpected]
    correct = len(signatures) == 1 and not unexpected

    first = every[0]
    slowest = max(first.latency, key=lambda x: x[1])
    summary = {
        "workload": args.workload,
        "provenance": prov,
        "passes_untraced": len(passes),
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "items_per_pass": len(first.latency),
        "latency_samples": f"{len(first.latency) * len(passes)}: "
                           f"{len(first.latency)} items x {len(passes)} untraced passes",
        "slowest_item": {"label": slowest[0], "ms": round(slowest[1] * 1e3, 3)},
        "values_digest": first.digest(),
        "deterministic": len(signatures) == 1,
        "counts": dict(sorted(first.counts.items())),
        "known_defect_failures": dict(first.known),
        "unexpected_failures": unexpected[:20],
        "import_runs_s": import_times,
        "setup_runs_s": setup_times,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        metrics = _per_layer(tracer, traced, statistics.median(p.wall for p in passes),
                             failed, attempted)
    else:
        metrics = _end_to_end(passes, setup_s, failed, attempted)
    if {(d["name"], d["unit"]) for d in declared} != {(k, m["unit"]) for k, m in metrics.items()}:
        print("error: metrics differ from the list in BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {d["name"]: metrics[d["name"]] for d in declared}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(summary, correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics, values=first.value_lines(),
                  item_labels=[label for label, _ in first.latency],
                  pass_latency_s=[[t for _, t in p.latency] for p in passes])
    if tracer is not None:
        record["span_fields"] = ["name", "start", "end", "parent", "item"]
        record["spans"] = tracer.spans
    stem.with_suffix(".json").write_text(json.dumps(record))

    print(json.dumps(summary, default=str))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
