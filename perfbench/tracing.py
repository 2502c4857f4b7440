"""Spans around the benchmark's calls into dirgeo, and the per-layer
metrics computed from them.

Every span is recorded by the benchmark's own code; nothing inside
``src/`` is traced.  An operation is a root span named ``op``; the calls it
makes into a layer's public functions are its children.  All spans of one
operation share its ``op`` number.  Spans stay in memory until the run
ends, then are written out in one file.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._ops = 0

    def call(self, name: str, fn, *args, **attrs):
        """Run fn(*args) inside a span; return (result, span) so the caller
        can add the counts it reads off the result."""
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._ops += 1
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else self._ops,
            "name": name,
            **attrs,
        }
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args), span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}))


def _ms(spans) -> float:
    return statistics.median(s["end"] - s["start"] for s in spans) * 1000.0


def _rate(spans, count: str) -> float:
    busy = sum(s["end"] - s["start"] for s in spans)
    return sum(s[count] for s in spans) / busy


def _per_pass(spans, count: str) -> float:
    """Median over passes of the pass total of a count."""
    totals: dict[tuple, int] = {}
    for s in spans:
        key = (s["workload"], s["pass"])
        totals[key] = totals.get(key, 0) + s[count]
    return statistics.median(totals.values())


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.  Each metric is
    taken from the operations of the workload that leads its layer."""
    ops = {s["id"]: s for s in spans if s["parent"] is None}
    groups: dict[tuple[str, str], list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            op = ops[s["parent"]]
            groups.setdefault((op["kind"], s["name"]), []).append(
                {**s, "workload": op["workload"], "pass": op["pass"]}
            )

    def pick(kinds, names):
        return [s for k in kinds for n in names for s in groups.get((k, n), [])]

    parse = pick(["script"], ["kernel.parse_proof_script"])
    check = pick(["script"], ["kernel.check_proof"])
    reject = pick(["mutant"], ["kernel.check_proof"])
    proves = pick(
        ["theorem", "negative", "identity", "draw"], ["search.prove", "search.prove_with_lemmas"]
    )
    negative = pick(["negative"], ["search.prove"])
    hits = pick(["hit"], ["models.find_countermodel"])
    exhaust = [s for s in pick(["exhaust"], ["models.find_countermodel"]) if s["max_n"] == 4]
    equiv = pick(["equiv"], ["models.equivalent_on_all"])
    scans = pick(["hit", "exhaust"], ["models.find_countermodel"]) + equiv
    jobs = pick(["jobs"], ["cli.main"])
    return {
        "syntax.parse_ms": _ms(parse),
        "syntax.parse_lines_per_s": _rate(parse, "lines"),
        "kernel.check_ms": _ms(check),
        "kernel.check_lines_per_s": _rate(check, "lines"),
        "kernel.reject_ms": _ms(reject),
        "search.prove_ms": _ms(proves),
        "search.negative_ms": _ms(negative),
        "search.lines_per_s": _rate(proves, "lines_generated"),
        "search.lines_generated": _per_pass(proves, "lines_generated"),
        "search.instantiations_tried": _per_pass(proves, "instantiations_tried"),
        "search.proof_lines": _per_pass(proves, "proof_lines"),
        "search.proved": _per_pass(proves, "proved"),
        "models.hit_ms": _ms(hits),
        "models.exhaust_ms": _ms(exhaust),
        "models.equiv_ms": _ms(equiv),
        "models.structures_per_s": _rate(scans, "structures"),
        "cli.models_jobs_ms": _ms(jobs),
    }
