"""The two benchmark workloads.

Each workload has `setup(seed, tracer)`, which builds every input from the
seed before any timing, and `run(inputs, rec)`, one closed-loop pass: one
client, `jobs=1`, items back to back.  Checks compare each result with the
definitions (the public `is_*` predicates, the chain tau <= tau_t <=
tau_strong, the transfer identity, the construction guarantees, the class
counts), never with witness bytes, so a change of witness is not a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice

from hypertrans import cli
from hypertrans.construct import (
    SplitMix64,
    randomized_strong_transversal,
    split_seed,
    strong_transversal_trials,
    total_edge_cover_forest,
    tt_2uniform,
    tt_kuniform,
)
from hypertrans.hcore import class_check, components, from_text, hypergraph
from hypertrans.solve import (
    is_dominating,
    is_strong_transversal,
    is_total_dominating,
    is_total_edge_cover,
    is_total_transversal,
    is_transversal,
    solve,
)
from hypertrans.xform import (
    family_Fk,
    family_Fk_star,
    graph,
    graph_from_text,
    onh,
    two_section,
)
from hypertrans.xsearch import (
    asymptotic_sweep,
    canonical_key,
    enumerate_Hk,
    estimate_bk,
    random_hypergraph,
    verify_bounds,
)

from record import Recorder

INSTANCE_DIR = os.path.join("perfbench", "out", "instances")

_PREDICATES = {
    "tau": is_transversal,
    "tau_t": is_total_transversal,
    "tau_strong": is_strong_transversal,
    "gamma": is_dominating,
    "gamma_t": is_total_dominating,
    "ec_t": is_total_edge_cover,
}


def _random_instance(tr, k, n, m, seed):
    """Set-up draw of one in-class instance; the only set-up call spanned."""
    with tr.span("xsearch.random_hypergraph"):
        return random_hypergraph(k, n, m, seed, require_class=True)


def _solve(rec: Recorder, obj, inv: str):
    """Exact solve whose witness must satisfy the definition of `inv`."""
    res = rec.call("solve." + inv, solve, obj, inv)
    rec.counts["solve.nodes"] += res.nodes
    rec.counts[f"solve.{inv}.nodes"] += res.nodes
    rec.check(
        res.value == len(res.witness) and _PREDICATES[inv](obj, res.witness),
        "solve", f"{inv} witness {res.witness} is not a valid size-{res.value} set",
    )
    return res


# ---------------------------------------------------------------- exact-solve

# (invariant, k, n, m, count): random in-class instances
EXACT_MIX = (
    ("tau_t", 3, 50, 42, 20),
    ("tau", 3, 60, 50, 20),
    ("tau_strong", 4, 40, 40, 10),
    ("gamma", 3, 60, 40, 20),
)
CUBIC_SIZES = (12, 14, 16, 18, 20, 22, 24)   # ec_t grows steeply past 24
CUBIC_COUNT = 10
# Search effort swings several-fold between random instances of one shape, so
# a fresh draw per --seed moved this workload's pass time by half its median
# from seed to seed.  The population is therefore fixed: random instances from
# the seed of the ROADMAP tau_t ladder, family expansions from criterion 08's
# own generator seed.  --seed sets the order in which the items run.
POPULATION_SEED = 7
FAMILY_SEED = 808


def _family_base(tr, k, want_star, rng):
    """Base instance of the family expansions, drawn as the criterion-08
    acceptance test draws it."""
    while True:
        n = k + 1 + rng.randrange(3)
        m = 2 + rng.randrange(2)
        if m > math.comb(n, k):
            continue
        H = _random_instance(tr, k, n, m, rng.next_u64())
        cc = class_check(H)
        if cc.k == k and (not want_star or cc.in_Hk_star):
            return H


def _cubic_graph(nv, rng):
    """Uniform 3-regular simple graph by the pairing model with rejection."""
    while True:
        points = [v for v in range(nv) for _ in range(3)]
        for i in range(len(points) - 1, 0, -1):
            j = rng.randrange(i + 1)
            points[i], points[j] = points[j], points[i]
        pairs = [tuple(sorted(points[2 * i:2 * i + 2]))
                 for i in range(len(points) // 2)]
        if len(set(pairs)) == len(pairs) and all(u != v for u, v in pairs):
            return graph(nv, pairs)


def exact_setup(seed, tr):
    """(label, invariant, text, expected value or None) per item."""
    items = []
    rng = SplitMix64(FAMILY_SEED)
    for i in range(30):
        if i < 20:
            k = (2, 3, 4)[i % 3]
            H = family_Fk(_family_base(tr, k, False, rng), k).hypergraph
            want = Fraction(2 * H.n, k + 1)
        else:
            k = (3, 4)[i % 2]
            H = family_Fk_star(_family_base(tr, k, True, rng), k).hypergraph
            want = Fraction(2 * H.n, k + 2)
        items.append((f"family-k{k}-{i:02d}", "gamma_t", H.to_text(), want))
    rng = SplitMix64(POPULATION_SEED)
    for inv, k, n, m, count in EXACT_MIX:
        for i in range(count):
            H = _random_instance(tr, k, n, m, rng.next_u64())
            items.append((f"{inv}-{i:02d}", inv, H.to_text(), None))
    for i in range(CUBIC_COUNT):
        nv = CUBIC_SIZES[i % len(CUBIC_SIZES)]
        G = _cubic_graph(nv, rng)
        items.append((f"ec_t-n{nv}-{i:02d}", "ec_t", G.to_text(), None))
    order = SplitMix64(seed).sample(len(items), len(items))
    return [items[i] for i in order]


def exact_run(inputs, rec: Recorder):
    for label, inv, text, want in inputs:
        with rec.item(label):
            if inv == "ec_t":
                obj = rec.call("xform.graph_from_text", graph_from_text, text)
            else:
                obj = rec.call("hcore.parse", from_text, text)
            res = _solve(rec, obj, inv)
            if want is not None:
                rec.check(res.value == want, "solve",
                          f"{label}: gamma_t {res.value}, family value {want}")
            rec.value(label, inv, obj.n, obj.m, res.value)


# ---------------------------------------------------------------- enumeration

# (k, n_max, m_max, nm_max, number of isomorphism classes)
ENUM_RUNS = ((2, 8, 9, 12, 49), (3, 7, 5, None, 184))
ENUM_ITEMS = sum(want + 1 for *_, want in ENUM_RUNS)   # one closing item each
RELABELS = 3
_PERM_SLOTS = 256 * RELABELS


def enum_setup(seed, tr):
    """Seeded relabellings: permutations of 0..8, cut down to 0..n-1."""
    return [SplitMix64(split_seed(seed, i)).sample(9, 9)
            for i in range(_PERM_SLOTS)]


def enum_run(perms, rec: Recorder, between):
    """The enumeration, one item per class; `between()` runs after each."""
    slot = 0
    for k, n_max, m_max, nm_max, want in ENUM_RUNS:
        classes = enumerate_Hk(k, n_max, m_max, nm_max)
        found = 0
        while True:
            H = None
            with rec.item(f"enum-k{k}-end") as it:
                H = rec.call("xsearch.enumerate", next, classes, None)
                if H is None:
                    rec.counts["xsearch.enumerate.classes"] += found
                    rec.check(found == want, "xsearch",
                              f"k={k}: {found} classes, expected {want}")
                else:
                    found += 1
                    it.label = f"enum-k{k}-{found:03d}"
                    _class_item(rec, H, k, perms, slot)
                    slot += RELABELS
            between()
            if H is None:
                break


def _class_item(rec: Recorder, H, k, perms, slot):
    rep = rec.call("xsearch.verify_bounds", verify_bounds, H)
    rec.counts["xsearch.verify_bounds.rows"] += len(rep.rows)
    rec.check(rep.flags.in_Hk and rep.flags.k == k and rep.all_hold,
              "xsearch", f"class {H.edges}: not in class or a row fails")
    key = rec.call("xsearch.canonical_key", canonical_key, H)
    for r in range(RELABELS):
        perm = [v for v in perms[(slot + r) % _PERM_SLOTS] if v < H.n]
        copy = hypergraph(H.n, [[perm[v] for v in e] for e in H.edges])
        rec.check(rec.call("xsearch.canonical_key", canonical_key, copy) == key,
                  "xsearch", f"relabelled {H.edges} has another key")
    rec.value("class", k, H.n, H.m, sorted(H.degrees()),
              [(r.theorem, str(r.lhs), str(r.rhs)) for r in rep.rows])


# ----------------------------------------------------------------------- pool

POOL_SIZE = 3000
TRIAL_BATCHES = ((20, 400), (50, 1000))   # (k, n = m)
TRIALS = 500
CLI_CALLS = 300
CLI_KINDS = ("solve", "tt", "tec", "strong", "trials",
             "xform", "gen", "verify", "search", "sweep")
_FORMATS = ("json", "csv", "text")
_INVARIANTS = ("tau", "tau_t", "tau_strong", "gamma", "gamma_t", "ec_t")
_XFORM_OPS = ("onh", "two-section", "family-fk")
_GEN_SHAPES = ((2, 8, 6), (3, 9, 6), (4, 10, 5), (5, 10, 4), (6, 10, 4))
# small enumeration limits, so the search leg stays light on canonical labelling
_SEARCH_LIMITS = {2: (5, 6), 3: (5, 3)}
STRONG_DEFECT = "construct --method strong: AttributeError on the bare tuple"


def _pool_shape(rng):
    """k in 2..6; criterion-06 shapes for k <= 3, criterion-05 ones above."""
    k = 2 + rng.randrange(5)
    if k <= 3:
        n = k + 1 + rng.randrange(10 - k)
        m = 2 + rng.randrange(min(4, math.comb(n, k) - 1))
    else:
        n = k + 1 + rng.randrange(12 - k)
        m = 2 + rng.randrange(min(5, math.comb(n, k) - 1))
    return k, n, m


def pool_setup(seed, tr):
    rng = SplitMix64(split_seed(seed, 3))
    pool = []
    for i in range(POOL_SIZE):
        k, n, m = _pool_shape(rng)
        H = _random_instance(tr, k, n, m, rng.next_u64())
        pool.append((f"pool-{i:04d}", k, H, H.to_text()))
    trials = [
        (f"trials-k{k}", _random_instance(tr, k, size, size, split_seed(seed, 10 + k)),
         split_seed(seed, 20 + k))
        for k, size in TRIAL_BATCHES
    ]
    # CLI instances: any member, 2-uniform connected members, k >= 3 members
    cats = {"any": pool[:60], "k2": [], "k3": []}
    for entry in pool:
        _, k, H, _ = entry
        if k == 2 and len(cats["k2"]) < 30 and len(components(H)) == 1:
            cats["k2"].append(entry)
        elif k >= 3 and len(cats["k3"]) < 30:
            cats["k3"].append(entry)
    os.makedirs(INSTANCE_DIR, exist_ok=True)
    written = set()
    calls = []
    for j in range(CLI_CALLS):
        kind = CLI_KINDS[j % len(CLI_KINDS)]
        rnd = j // len(CLI_KINDS)
        # formats change every 6 rounds, so every invariant, operation and
        # shape below meets every format
        fmt = _FORMATS[rnd // len(_INVARIANTS) % len(_FORMATS)]
        spec = {"kind": kind, "seed": split_seed(seed, 1000 + j)}
        path = None
        cat = {"tec": "k2", "strong": "k3", "trials": "k3"}.get(kind, "any")
        if kind == "solve":
            spec["inv"] = _INVARIANTS[rnd % len(_INVARIANTS)]
            if spec["inv"] == "ec_t":
                cat = "k2"
        if kind in ("solve", "tt", "tec", "strong", "trials", "xform", "verify"):
            label, k, H, text = cats[cat][rnd % len(cats[cat])]
            path = os.path.join(INSTANCE_DIR, label + ".hg")
            if path not in written:
                with open(path, "w") as fh:
                    fh.write(text)
                written.add(path)
            spec.update(H=H, k=k)
        argv = _cli_argv(spec, path, rnd)
        calls.append((f"cli-{j:03d}-{kind}-{fmt}", spec, argv + [
            "--format", fmt, "--no-timestamp"]))
    # every item as (label, item function, its arguments after rec)
    return ([(label, _pool_item, (text, k, label)) for label, k, _, text in pool]
            + [(label, _trial_item, (H, seed, label)) for label, H, seed in trials]
            + [(label, _cli_item, (spec, argv, label)) for label, spec, argv in calls])


def _cli_argv(spec, path, rnd):
    kind, seed = spec["kind"], str(spec["seed"])
    if kind == "solve":
        return ["solve", path, "--invariant", spec["inv"]]
    if kind == "tt":
        return ["construct", path, "--method", "tt2" if spec["k"] == 2 else "ttk"]
    if kind == "tec":
        return ["construct", path, "--method", "tec-forest"]
    if kind == "strong":
        return ["construct", path, "--method", "strong", "--seed", seed]
    if kind == "trials":
        return ["construct", path, "--method", "strong-trials",
                "--trials", "50", "--seed", seed]
    if kind == "xform":
        spec["op"] = _XFORM_OPS[rnd % len(_XFORM_OPS)]
        extra = ["--k", str(spec["k"])] if spec["op"] == "family-fk" else []
        return ["xform", path, "--op", spec["op"]] + extra
    if kind == "gen":
        k, n, m = spec["shape"] = _GEN_SHAPES[rnd % len(_GEN_SHAPES)]
        return ["gen", "--k", str(k), "--n", str(n), "--m", str(m),
                "--seed", seed, "--require-class"]
    if kind == "verify":
        return ["verify", path]
    if kind == "search":
        spec["k"] = 2 + rnd % 2
        n_max, m_max = spec["limits"] = _SEARCH_LIMITS[spec["k"]]
        return ["search", "--k", str(spec["k"]), "--budget", "30", "--seed", seed,
                "--n-max", str(n_max), "--m-max", str(m_max)]
    return ["sweep", "--k-list", "3,4", "--trials", "20", "--seed", seed]


def _pool_item(rec: Recorder, text, k, label):
    H = rec.call("hcore.parse", from_text, text)
    cc = rec.call("hcore.class_check", class_check, H)
    rec.check(cc.in_Hk and cc.k == k, "hcore", f"{label}: not a k={k} member")
    rep = rec.call("xsearch.verify_bounds", verify_bounds, H)
    rec.counts["xsearch.verify_bounds.rows"] += len(rep.rows)
    rows = {r.theorem: r for r in rep.rows}
    exact = _solve(rec, H, "tau_t").value
    rec.check(rep.all_hold and rows["chain_tau"].rhs == exact, "xsearch",
              f"{label}: a bound row fails or its tau_t is not {exact}")
    tt = rec.call("construct.tt", tt_2uniform if k == 2 else tt_kuniform, H)
    rec.check(is_total_transversal(H, tt.set) and exact <= tt.size <= tt.guarantee,
              "construct", f"{label}: total transversal of size {tt.size} "
              f"outside [{exact}, {tt.guarantee}] or invalid")
    gt = _solve(rec, H, "gamma_t").value
    via_onh = _solve(rec, rec.call("xform.onh", onh, H), "tau").value
    G = rec.call("xform.two_section", two_section, H)
    via_2sec = _solve(rec, rec.call("xform.to_hypergraph", G.to_hypergraph),
                      "gamma_t").value
    rec.check(gt == via_onh == via_2sec and rows["T_main2"].lhs == gt, "solve",
              f"{label}: gamma_t {gt}, tau(onh) {via_onh}, "
              f"gamma_t(2-section) {via_2sec}")
    record = [label, k, H.n, H.m, exact, gt, tt.size, str(tt.guarantee),
              [(r.theorem, str(r.lhs), str(r.rhs)) for r in rep.rows]]
    if k == 2 and len(rec.call("hcore.components", components, H)) == 1:
        tec = rec.call("construct.tec", total_edge_cover_forest, G)
        best = _solve(rec, G, "ec_t").value
        rec.check(is_total_edge_cover(G, tec.set)
                  and best <= tec.size <= tec.guarantee, "construct",
                  f"{label}: total edge cover of size {tec.size} outside "
                  f"[{best}, {tec.guarantee}] or invalid")
        record += [best, tec.size, str(tec.guarantee)]
    rec.value(*record)


def _trial_item(rec: Recorder, H, seed, label):
    rep = rec.call("construct.trials", strong_transversal_trials, H, 2.0, TRIALS, seed)
    rec.counts["construct.trials.count"] += rep.trials
    rec.check(rep.all_valid and rep.mean_size <= rep.bound, "construct",
              f"{label}: mean {rep.mean_size} over bound {rep.bound} or invalid")
    rec.value(label, rep.n, rep.m, rep.mean_size, rep.bound, rep.mean_x1,
              rep.mean_x2, rep.mean_x3)


def _reference(rec: Recorder, spec):
    """The library's answer to one CLI call: (scalars, rows, witness check)."""
    kind, H, seed = spec["kind"], spec.get("H"), spec["seed"]
    if kind == "solve":
        inv = spec["inv"]
        obj = rec.call("xform.graph", graph, H.n, H.edges) if inv == "ec_t" else H
        res = _solve(rec, obj, inv)
        wit = (lambda p: _PREDICATES[inv](
            obj, [tuple(e) for e in p["witness"]] if inv == "ec_t" else p["witness"]))
        return ({"invariant": inv, "value": res.value, "nodes": res.nodes,
                 "method": res.method}, None, wit)
    if kind == "tt":
        res = rec.call("construct.tt", tt_2uniform if spec["k"] == 2 else tt_kuniform, H)
        return ({"size": res.size, "guarantee": res.guarantee}, None,
                lambda p: is_total_transversal(H, p["set"]))
    if kind == "tec":
        G = rec.call("xform.graph", graph, H.n, H.edges)
        res = rec.call("construct.tec", total_edge_cover_forest, G)
        return ({"size": res.size, "guarantee": res.guarantee}, None,
                lambda p: is_total_edge_cover(G, [tuple(e) for e in p["edges"]]))
    if kind == "strong":
        res = rec.call("construct.strong", randomized_strong_transversal, H, 2.0, seed)
        chosen = getattr(res, "set", res)
        return ({"size": len(chosen)}, None,
                lambda p: is_strong_transversal(H, p["set"]))
    if kind == "trials":
        rep = rec.call("construct.trials", strong_transversal_trials, H, 2.0, 50, seed)
        rec.counts["construct.trials.count"] += rep.trials
        return ({"trials": rep.trials, "mean_size": rep.mean_size,
                 "bound": rep.bound, "all_valid": rep.all_valid}, None, None)
    if kind == "xform":
        op = spec["op"]
        if op == "family-fk":
            fam = rec.call("xform.family_Fk", family_Fk, H, spec["k"])
            res, extra = fam.hypergraph, {"kind": fam.kind, "base_n": fam.base_n}
        else:
            fn = onh if op == "onh" else two_section
            res, extra = rec.call("xform." + fn.__name__, fn, H), {}
        return ({"n": res.n, "m": res.m, **extra}, None,
                lambda p: p["text"] == res.to_text())
    if kind == "gen":
        k, n, m = spec["shape"]
        res = rec.call("xsearch.random_hypergraph", random_hypergraph, k, n, m, seed, True)
        return ({"n": res.n, "m": res.m}, None,
                lambda p: p["text"] == res.to_text())
    if kind == "verify":
        rep = rec.call("xsearch.verify_bounds", verify_bounds, H)
        rec.counts["xsearch.verify_bounds.rows"] += len(rep.rows)
        return ({"all_hold": rep.all_hold, "k": rep.flags.k,
                 "instance_id": rep.instance_id},
                [{"theorem": r.theorem, "lhs": r.lhs, "rhs": r.rhs,
                  "holds": r.holds} for r in rep.rows], None)
    if kind == "search":
        est = rec.call("xsearch.estimate_bk", estimate_bk, spec["k"], 30, seed,
                       *spec["limits"])
        return ({"best_ratio": est.best_ratio,
                 "instances_tested": est.instances_tested, "mode": est.mode},
                None, None)
    rows = rec.call("xsearch.asymptotic_sweep", asymptotic_sweep, [3, 4], 2.0, 20, seed)
    return ({}, [{"k": r.k, "best_ratio": r.best_ratio, "mc_valid": r.mc_valid}
                 for r in rows], None)


_TEXT_SCALAR = re.compile(r"^  ([\w-]+): (.*)$")
_TEXT_ROW = re.compile(r"^  rows\[\d+\]: (.*)$")
_TEXT_PAIR = re.compile(r"(\w+)=(\S+)")


def _view(out: str, fmt: str):
    """The result part of one CLI payload as (scalars, rows, parsed JSON or
    None), every scalar and row value a string, so the formats compare alike."""
    if fmt == "json":
        result = json.loads(out)["result"]
        scalars = {k: str(v) for k, v in result.items()
                   if not isinstance(v, (dict, list))}
        rows = [{k: str(v) for k, v in r.items()} for r in result.get("rows", [])]
        return scalars, rows, result
    if fmt == "csv":
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(body))
        return (rows[0] if len(rows) == 1 else {}), rows, None
    scalars, rows, inside = {}, [], False
    for line in out.splitlines():
        if not line.startswith(" "):
            inside = line == "result:"
        elif inside:
            row = _TEXT_ROW.match(line)
            if row:
                rows.append(dict(_TEXT_PAIR.findall(row.group(1))))
                continue
            scalar = _TEXT_SCALAR.match(line)
            if scalar:
                scalars[scalar.group(1)] = scalar.group(2)
    return scalars, rows, None


def _mismatch(out: str, fmt: str, scalars: dict, rows, witness_ok):
    got_scalars, got_rows, payload = _view(out, fmt)
    if rows is not None:
        if len(got_rows) != len(rows):
            return f"{len(got_rows)} rows, library has {len(rows)}"
        for got, want in zip(got_rows, rows):
            for key, val in want.items():
                if got.get(key) != str(val):
                    return f"row {key}={got.get(key)}, library {val}"
    if rows is None or fmt != "csv":
        for key, val in scalars.items():
            if got_scalars.get(key) != str(val):
                return f"{key}={got_scalars.get(key)}, library {val}"
    if payload is not None and witness_ok is not None and not witness_ok(payload):
        return "payload set fails its definition"
    return None


def _cli_item(rec: Recorder, spec, argv, label):
    out, err = io.StringIO(), io.StringIO()
    known = STRONG_DEFECT if spec["kind"] == "strong" else None
    with redirect_stdout(out), redirect_stderr(err):
        code = rec.call("cli.main", cli.main, argv, known_defect=known)
    text = out.getvalue()
    rec.counts["cli.stdout_bytes"] += len(text.encode())
    if code != 0:
        rec.check(False, "cli", f"{label}: exit {code}, {err.getvalue().strip()}")
        return
    scalars, rows, witness_ok = _reference(rec, spec)
    fmt = argv[argv.index("--format") + 1]
    try:
        problem = _mismatch(text, fmt, scalars, rows, witness_ok)
    except (ValueError, KeyError, IndexError) as exc:
        problem = f"unreadable payload: {type(exc).__name__}: {exc}"
    rec.check(problem is None, "cli", f"{label}: {problem}")
    rec.value(label, {k: str(v) for k, v in scalars.items()},
              [{k: str(v) for k, v in r.items()} for r in rows or []])


def _run_steps(rec: Recorder, steps):
    for label, fn, args in steps:
        with rec.item(label):
            fn(rec, *args)


# ------------------------------------------------------------- pool-enumerate

def pool_enum_setup(seed, tr):
    return enum_setup(seed, tr), pool_setup(seed, tr)


def pool_enum_run(inputs, rec: Recorder):
    """The pool's items spread evenly between the enumeration's, so that each
    latency quantile samples the whole pass, not one stretch of it."""
    perms, steps = inputs
    rest = iter(steps)
    share = len(steps) // ENUM_ITEMS
    enum_run(perms, rec, lambda: _run_steps(rec, islice(rest, share)))
    _run_steps(rec, rest)


# The enumeration shares a workload with the pool: on a shared 2-vCPU host a
# timing is steady only over runs of about a minute, and only two workloads
# fit that run length.  Deep search stays apart from the per-call solve cost.
WORKLOADS = {
    "exact-solve": (exact_setup, exact_run),
    "pool-enumerate": (pool_enum_setup, pool_enum_run),
}
