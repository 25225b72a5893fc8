"""Per-pass bookkeeping: items, operations, checks, counts and values.

An *item* is one top-level unit of a workload (a solve, an emitted class, a
pool instance, a trial batch, a CLI call) together with its checks; its wall
time is one latency sample.  An *operation* is one call from the benchmark
into the package.  A failure is an operation that raised or a check that did
not hold; each counts as one failed operation.  An operation that
raises ends its item, since nothing after it has an input.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from time import perf_counter


class ItemAborted(Exception):
    """An operation of the current item failed; the rest of it is skipped."""


class _ItemScope:
    """Times one item; the body may rename it through `.label`."""

    __slots__ = ("rec", "label", "start", "span")

    def __init__(self, rec, label):
        self.rec = rec
        self.label = label

    def __enter__(self):
        rec = self.rec
        rec.tr.item = len(rec.latency)
        self.span = rec.tr.span("item")
        self.start = perf_counter()
        self.span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.span.__exit__(exc_type, exc, tb)
        rec = self.rec
        rec.latency.append((self.label, perf_counter() - self.start))
        rec.tr.item = -1
        return exc_type is ItemAborted


class Recorder:
    def __init__(self, tracer):
        self.tr = tracer
        self.latency: list[tuple[str, float]] = []
        self.counts: Counter = Counter()     # deterministic work counters
        self.values: list = []               # checked results, for the digest
        self.attempted = 0
        self.failed = 0
        self.failed_by_module: Counter = Counter()
        self.known: Counter = Counter()      # failures of known defects
        self.unexpected: list[str] = []      # any other failure
        self.wall = 0.0                      # pass wall time, set by the runner
        self.signature: tuple = ()           # fingerprint(), set by the runner

    def item(self, label: str) -> _ItemScope:
        return _ItemScope(self, label)

    def call(self, layer: str, fn, *args, known_defect: str | None = None):
        """One operation into `layer`, timed by a span of that name."""
        self.attempted += 1
        try:
            with self.tr.span(layer):
                return fn(*args)
        except Exception as exc:  # every failure is counted, then the item ends
            if type(exc).__name__ == "InfeasibleError":
                self.counts["solve.infeasible"] += 1
            self._fail(layer, f"{type(exc).__name__}: {exc}", known_defect)
            raise ItemAborted from exc

    def check(self, ok: bool, module: str, what: str) -> None:
        if not ok:
            self._fail(module, "wrong value: " + what, None)

    def value(self, *record) -> None:
        self.values.append(record)

    def _fail(self, layer: str, why: str, known_defect: str | None) -> None:
        self.failed += 1
        self.failed_by_module[layer.split(".")[0]] += 1
        if known_defect:
            self.known[known_defect] += 1
        else:
            self.unexpected.append(f"{layer}: {why}")

    def value_lines(self) -> list[str]:
        return sorted(json.dumps(v, separators=(",", ":")) for v in self.values)

    def digest(self) -> str:
        text = "\n".join(self.value_lines())
        return hashlib.sha256(text.encode()).hexdigest()

    def fingerprint(self) -> tuple:
        """What must repeat exactly in every pass of one seed."""
        return (
            self.digest(),
            tuple(sorted(self.counts.items())),
            tuple(label for label, _ in self.latency),
            self.attempted,
            self.failed,
        )
