"""Command line front end.

Exit codes: 0 success, 1 infeasible instance or a failed bound row,
2 usage or input errors, 3 an internal failure (a RuntimeError, such as a
random draw that found no in-class instance within its retry limit or a
witness that failed its re-check, or running out of memory).  Errors print one `error:` line on
stderr.  Every run echoes its effective configuration and tags numeric
claims with their provenance (solver, construction, formula).  With
--no-timestamp the output is byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from datetime import datetime, timezone

from .construct import (
    randomized_strong_transversal,
    strong_expected_bound,
    strong_transversal_trials,
    total_edge_cover_forest,
    tt_2uniform,
    tt_kuniform,
)
from .hcore import (
    MAX_HEADER_COUNT, FormatError, Hypergraph, content_lines, from_text,
)
from .solve import InfeasibleError, brute_force_oracle, solve
from .xform import (
    Graph,
    dual,
    family_Fk,
    family_Fk_star,
    graph,
    graph_from_text,
    onh,
    shrink_degree_one,
    two_section,
)
from .xsearch import asymptotic_sweep, estimate_bk, random_hypergraph, verify_bounds

_INVARIANTS = ("tau", "tau_t", "tau_strong", "gamma", "gamma_t", "ec_t")


def _u64(text: str) -> int:
    v = int(text)
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return v


def _jobs(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return v


def _workers(jobs: int) -> int:
    """--jobs capped at the machine's CPU count."""
    return min(jobs, os.cpu_count() or 1)


def _load(path: str):
    with open(path) as fh:
        text = fh.read()
    lines = content_lines(text)
    if not lines:
        raise FormatError(f"{path} has no content lines")
    head = lines[0].split()[0]
    if head == "hg":
        return from_text(text)
    if head == "g":
        return graph_from_text(text)
    raise FormatError(f"unrecognized header {head!r} in {path}")


def _as_hypergraph(obj) -> Hypergraph:
    if isinstance(obj, Hypergraph):
        return obj
    return obj.to_hypergraph()


def _as_graph(obj) -> Graph:
    if isinstance(obj, Graph):
        return obj
    if any(len(e) != 2 for e in obj.edges):
        raise ValueError("graph operation needs 2-uniform input")
    return graph(obj.n, obj.edges)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later one in the process: parse_args keeps no state between calls and
    returns a fresh Namespace each time."""
    p = argparse.ArgumentParser(
        prog="hypertrans",
        description="exact solvers, constructions, and bound checks for "
        "total transversals and total domination",
    )
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
        sp.add_argument("--no-timestamp", action="store_true")

    sp = sub.add_parser("solve", help="exact invariant of one instance")
    sp.add_argument("file")
    sp.add_argument("--invariant", choices=_INVARIANTS, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="exhaustive reference search instead of the default")
    sp.add_argument("--cap", type=int, default=24,
                    help="ground set limit for --oracle")
    common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("construct", help="guaranteed-size covers")
    sp.add_argument("file")
    sp.add_argument("--method", required=True,
                    choices=("tt2", "ttk", "strong", "strong-trials",
                             "tec-forest"))
    sp.add_argument("--c", type=float, default=2.0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=_u64, default=0)
    sp.add_argument("--jobs", type=_jobs, default=1)
    sp.add_argument("--cap", type=int, default=16,
                    help="exact packing limit for tec-forest")
    common(sp)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("xform", help="rewrite an instance")
    sp.add_argument("file")
    sp.add_argument("--op", required=True,
                    choices=("onh", "two-section", "dual", "shrink",
                             "family-fk", "family-fk-star"))
    sp.add_argument("--k", type=int, help="uniformity for family ops")
    common(sp)
    sp.set_defaults(func=_cmd_xform)

    sp = sub.add_parser("gen", help="seeded random instance")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=_u64, required=True)
    sp.add_argument("--require-class", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("search", help="best ratio of total transversal to n+m")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--budget", type=int, default=500)
    sp.add_argument("--seed", type=_u64, default=0)
    sp.add_argument("--n-max", type=int)
    sp.add_argument("--m-max", type=int)
    common(sp)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("verify", help="evaluate every applicable bound row")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="bracket the decay of the best ratio")
    sp.add_argument("--k-list", required=True,
                    help="comma separated uniformities")
    sp.add_argument("--c", type=float, default=2.0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=_u64, default=0)
    sp.add_argument("--jobs", type=_jobs, default=1)
    common(sp)
    sp.set_defaults(func=_cmd_sweep)
    return p


def _cmd_solve(args):
    obj = _load(args.file)
    if args.invariant == "ec_t":
        obj = _as_graph(obj)
    else:
        obj = _as_hypergraph(obj)
    try:
        if args.oracle:
            res = brute_force_oracle(obj, args.invariant, cap=args.cap)
        else:
            res = solve(obj, args.invariant)
    except InfeasibleError as exc:
        return {"invariant": args.invariant, "value": "infeasible",
                "reason": str(exc), "provenance": "solver"}, 1
    witness = [list(e) for e in res.witness] if args.invariant == "ec_t" \
        else list(res.witness)
    return {"invariant": res.invariant, "value": res.value,
            "witness": witness, "nodes": res.nodes, "method": res.method,
            "provenance": "solver"}, 0


def _rule_counts(trace):
    out: dict[str, int] = {}
    for rule, *_ in trace:
        out[rule] = out.get(rule, 0) + 1
    return dict(sorted(out.items()))


def _cmd_construct(args):
    obj = _load(args.file)
    if args.method == "tec-forest":
        G = _as_graph(obj)
        res = total_edge_cover_forest(G, cap=args.cap)
        return {"method": args.method, "edges": [list(e) for e in res.set],
                "size": res.size, "guarantee": str(res.guarantee),
                "provenance": {"edges": "construction",
                               "guarantee": "formula"}}, 0
    H = _as_hypergraph(obj)
    if args.method in ("tt2", "ttk"):
        res = tt_2uniform(H) if args.method == "tt2" else tt_kuniform(H)
        return {"method": args.method, "set": sorted(res.set),
                "size": res.size, "guarantee": str(res.guarantee),
                "rules": _rule_counts(res.trace),
                "provenance": {"set": "construction",
                               "guarantee": "formula"}}, 0
    if args.method == "strong":
        chosen = randomized_strong_transversal(H, args.c, args.seed)
        return {"method": args.method, "set": list(chosen),
                "size": len(chosen),
                "expected_size_bound": strong_expected_bound(H, args.c),
                "c": args.c, "seed": args.seed,
                "provenance": {"set": "construction",
                               "expected_size_bound": "formula"}}, 0
    rep = strong_transversal_trials(H, args.c, args.trials, args.seed,
                                    jobs=_workers(args.jobs))
    out = rep.as_dict()
    out["method"] = args.method
    out["provenance"] = {"mean_size": "construction", "bound": "formula"}
    return out, 0


def _cmd_xform(args):
    obj = _load(args.file)
    op = args.op
    if op in ("family-fk", "family-fk-star"):
        if args.k is None:
            raise ValueError("family ops need --k")
        fam = family_Fk(_as_hypergraph(obj), args.k) if op == "family-fk" \
            else family_Fk_star(_as_hypergraph(obj), args.k)
        res = fam.hypergraph
        meta = {"kind": fam.kind, "k": fam.k, "base_n": fam.base_n}
    else:
        H = _as_hypergraph(obj)
        res = {"onh": onh, "two-section": two_section, "dual": dual,
               "shrink": shrink_degree_one}[op](H)
        meta = {}
    kind = "g" if isinstance(res, Graph) else "hg"
    return {"op": op, "output_format": kind, "n": res.n, "m": res.m,
            **meta, "text": res.to_text()}, 0


def _cmd_gen(args):
    # what solve could not read back is not written
    if max(args.n, args.m) > MAX_HEADER_COUNT:
        raise ValueError(f"--n and --m may be at most {MAX_HEADER_COUNT}")
    H = random_hypergraph(args.k, args.n, args.m, args.seed,
                          require_class=args.require_class)
    return {"k": args.k, "n": H.n, "m": H.m, "seed": args.seed,
            "output_format": "hg", "text": H.to_text()}, 0


def _cmd_search(args):
    est = estimate_bk(args.k, args.budget, args.seed,
                      n_max=args.n_max, m_max=args.m_max)
    return {"k": est.k, "best_ratio": str(est.best_ratio),
            "ratio_float": float(est.best_ratio),
            "witness": {"n": est.witness.n, "m": est.witness.m,
                        "text": est.witness.to_text()},
            "instances_tested": est.instances_tested, "mode": est.mode,
            "provenance": {"best_ratio": "solver"}}, 0


def _cmd_verify(args):
    H = _as_hypergraph(_load(args.file))
    try:
        rep = verify_bounds(H)
    except InfeasibleError as exc:
        return {"all_hold": False, "value": "infeasible",
                "reason": str(exc)}, 1
    return rep.as_dict(), 0 if rep.all_hold else 1


def _cmd_sweep(args):
    try:
        k_list = [int(t) for t in args.k_list.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"bad --k-list {args.k_list!r}") from None
    if not k_list or any(k < 2 for k in k_list):
        raise ValueError(f"bad --k-list {args.k_list!r}")
    rows = asymptotic_sweep(k_list, args.c, args.trials, args.seed,
                            jobs=_workers(args.jobs))
    return {"rows": [r.as_dict() for r in rows],
            "provenance": {"upper_per_nm": "construction",
                           "mc_mean_per_nm": "construction",
                           "best_ratio": "solver",
                           "reference": "formula"}}, 0


def _config_of(args) -> dict:
    skip = {"func", "command"}
    return {k.replace("_", "-"): v for k, v in sorted(vars(args).items())
            if k not in skip}


def _flat(values) -> str:
    return " ".join(
        ",".join(map(str, v)) if isinstance(v, (list, tuple)) else str(v)
        for v in values
    )


def _text_lines(value, key="", indent=""):
    lines = []
    if isinstance(value, dict):
        if key:
            lines.append(f"{indent}{key}:")
            indent += "  "
        for k, v in value.items():
            lines.extend(_text_lines(v, str(k), indent))
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, item in enumerate(value):
            flat = " ".join(f"{k}={v}" for k, v in item.items())
            lines.append(f"{indent}{key}[{i}]: {flat}")
    elif isinstance(value, list):
        lines.append(f"{indent}{key}: {_flat(value)}")
    elif isinstance(value, str) and "\n" in value:
        lines.append(f"{indent}{key}: |")
        lines.extend(f"{indent}  {ln}" for ln in value.splitlines())
    else:
        lines.append(f"{indent}{key}: {value}")
    return lines


def _csv_rows(result: dict):
    rows = result.get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        return rows
    flat = {}
    for k, v in result.items():
        if isinstance(v, dict):
            continue
        if isinstance(v, list):
            flat[k] = _flat(v)
        elif isinstance(v, str) and "\n" in v:
            flat[k] = v.replace("\n", ";")
        else:
            flat[k] = v
    return [flat]


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    if fmt == "text":
        lines = []
        for k, v in payload.items():
            lines.extend(_text_lines(v, k))
        print("\n".join(lines))
        return
    buf = io.StringIO()
    for k, v in payload.get("config", {}).items():
        buf.write(f"# {k}={v}\n")
    if "generated_at" in payload:
        buf.write(f"# generated_at={payload['generated_at']}\n")
    rows = _csv_rows(payload.get("result", {}))
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    print(buf.getvalue(), end="")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        result, code = args.func(args)
    except (OSError, FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    payload = {"command": args.command, "config": _config_of(args),
               "result": result}
    if not args.no_timestamp:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
