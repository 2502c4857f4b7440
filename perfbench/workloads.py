"""One workload process: set up, run the timed closed loop, check the answers.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process prints ``READY`` on stdout once set-up is over (imports, inputs
made from the seed, one untimed warm-up pass), then runs whole passes of
the workload's operations one after another until ``--seconds`` have gone
by and at least MIN_OPS operations have run, checks every answer, and
prints one JSON line of results.  perfbench/run.py starts it and times
set-up from outside.

With ``--trace 1`` the calls into dirgeo run inside spans (tracing.py).
The named workload runs traced for ``--seconds``, then one traced pass of
each other workload follows, so that every traced run reports every
per-layer metric, each from the workload that leads its layer.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dirgeo  # noqa: E402
from dirgeo import cli, corpus  # noqa: E402
from dirgeo.geometry import axiom, defined_form, expand_defs, w_decomposition  # noqa: E402
from dirgeo.kernel import Proof, check_proof, parse_proof_script, print_proof_script  # noqa: E402
from dirgeo.models import equivalent_on_all, find_countermodel  # noqa: E402
from dirgeo.search import SearchConfig, prove, prove_with_lemmas  # noqa: E402
from dirgeo.syntax import build_and, canonical_key, rule_eq  # noqa: E402

import oracle  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

MIN_OPS = 100  # so that op_p90_ms has at least ten samples beyond it

# The acceptance-suite theorems: (premises, goal, config, staged via OO).
THEOREMS = [
    (("I6",), "W1", SearchConfig(max_depth=2, max_term_depth=1), False),
    (("I6",), "W4", SearchConfig(max_depth=2, max_term_depth=1), False),
    (("I5", "ODO"), "OO", SearchConfig(max_depth=1, max_term_depth=1), False),
    (("I5", "I6", "ODO"), "W2", SearchConfig(max_depth=2, max_term_depth=2), True),
    (("I5", "I6", "ODO"), "W3", SearchConfig(max_depth=2, max_term_depth=2), True),
    (("I7", "I8", "ODO"), "I6", SearchConfig(max_depth=2, max_term_depth=3), False),
]
OO_LEMMA = (("I5", "ODO"), "OO")
# W2 proved without staging, as `dirgeo prove --direct` does.  It makes the
# check workload's pass 13 scripts long: with an odd count, op_p50_ms falls
# on one script's own latency instead of in the gap between two.
DIRECT_W2 = (("I5", "I6", "ODO"), "W2", SearchConfig(max_depth=2, max_term_depth=2), False)
NEGATIVE = (("I6",), "W2", SearchConfig(max_depth=2, max_term_depth=2, max_lines=8000))
FUZZ = SearchConfig(max_depth=1, max_term_depth=1, max_lines=250)
DRAW_NAMES = ("I5", "I6", "I7", "I8", "ODO", "W1", "W2", "W3", "W4", "OO")

# Entailments the paper proves, so "no countermodel" is the right answer.
ENTAILMENTS = {
    (("I6",), "W1"),
    (("I6",), "W4"),
    (("I5", "I6", "ODO"), "W2"),
    (("I5", "I6", "ODO"), "W3"),
    (("I7", "I8", "ODO"), "I6"),
}
MODEL_QUERIES = [
    (("I5", "I6"), "W2", 4),
    (("I5", "I6"), "W3", 4),
    (("I6",), "W1", 3),
    (("I6",), "W4", 3),
    (("I5", "I6", "ODO"), "W2", 3),
    (("I5", "I6", "ODO"), "W3", 3),
    (("I7", "I8", "ODO"), "I6", 3),
    (("I6",), "W1", 4),
    (("I7", "I8", "ODO"), "I6", 4),
]
JOBS_ARGV = ["models", "--from", "I6", "--goal", "W1", "--max-size", "4", "--jobs", "2",
             "--format", "records"]


def _axioms(names) -> list:
    return [axiom(n) for n in names]


def _sequent(premises, goal) -> str:
    return f"{','.join(premises) or '(none)'} |- {goal}"


# -- calls into dirgeo's layers, traced or not ---------------------------------


class Calls:
    """The public functions the workloads call.  With a tracer set, each call
    runs inside a span that carries the counts read off its result."""

    def __init__(self):
        self.tracer: Tracer | None = None

    def parse(self, text):
        if self.tracer is None:
            return parse_proof_script(text)
        proof, span = self.tracer.call("kernel.parse_proof_script", parse_proof_script, text)
        span["lines"] = len(proof.lines)
        return proof

    def check(self, proof):
        if self.tracer is None:
            return check_proof(proof)
        report, span = self.tracer.call("kernel.check_proof", check_proof, proof)
        span.update(lines=len(proof.lines), valid=report.valid)
        return report

    def prove(self, premises, goal, cfg, lemmas=None):
        if lemmas is None:
            name, fn, args = "search.prove", prove, (premises, goal, cfg)
        else:
            name, fn, args = "search.prove_with_lemmas", prove_with_lemmas, (premises, lemmas, goal, cfg)
        if self.tracer is None:
            return fn(*args)
        result, span = self.tracer.call(name, fn, *args)
        span.update(
            lines_generated=result.stats.lines_generated,
            instantiations_tried=result.stats.instantiations_tried,
            proved=int(result.proved),
            proof_lines=len(result.proof.lines) if result.proved else 0,
        )
        return result

    def countermodel(self, premises, goal, max_n):
        if self.tracer is None:
            return find_countermodel(premises, goal, max_n)
        cm, span = self.tracer.call("models.find_countermodel", find_countermodel, premises, goal, max_n)
        span.update(max_n=max_n, structures=_decided(cm, max_n))
        return cm

    def equivalent(self, f, g, max_n):
        if self.tracer is None:
            return equivalent_on_all(f, g, max_n)
        same, span = self.tracer.call("models.equivalent_on_all", equivalent_on_all, f, g, max_n)
        span.update(max_n=max_n, structures=oracle.structures_before(max_n + 1))
        return same

    def cli_main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if self.tracer is None:
                code = cli.main(argv)
            else:
                code, span = self.tracer.call("cli.main", cli.main, argv)
                span["exit"] = code
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        return code, [{k: v for k, v in r.items() if k != "elapsed"} for r in records]


def _decided(cm, max_n: int) -> int:
    """Structures of the documented order a query decided: all of them up to
    max_n when there is no countermodel, else those up to and including it."""
    if cm is None:
        return oracle.structures_before(max_n + 1)
    index = oracle.order_index(cm.size, cm.rev, cm.undir)
    return oracle.structures_before(cm.size) + index + 1


# -- workloads -------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    failed: Callable[[object], bool] = lambda result: False


@dataclass
class Workload:
    """One pass of operations.  ``check`` judges the answers of the warm-up
    pass in depth; ``digest`` reduces an answer to what every later pass
    must repeat exactly, so no pass's results need to be kept."""

    name: str
    ops: list[Op]
    check: Callable[[list], list[str]]
    digest: Callable[[object], object]


def _theorem_result(calls: Calls, premises, goal, cfg, staged):
    if staged:
        lemma = (_axioms(OO_LEMMA[0]), axiom(OO_LEMMA[1]))
        return calls.prove(_axioms(premises), axiom(goal), cfg, [lemma])
    return calls.prove(_axioms(premises), axiom(goal), cfg)


def _certifies(report, premises, conclusion) -> bool:
    """The report certifies exactly premises |- conclusion (formulas)."""
    return (
        report.valid
        and len(report.premises) == len(premises)
        and all(rule_eq(a, b) for a, b in zip(report.premises, premises))
        and rule_eq(report.conclusion, conclusion)
    )


def build_check(rng: random.Random, calls: Calls) -> Workload:
    """Parse and check one proof script per operation: the six corpus
    transcripts and the prover's scripts for the acceptance theorems, plus
    W2 proved directly."""
    scripts = []  # (label, text, declared premises, declared conclusion, line count or None)
    for cid in corpus.corpus_ids():
        entry = corpus.ENTRIES[cid]
        scripts.append((f"corpus:{cid}", corpus.script_text(cid), entry.declared_premises(),
                        entry.declared_conclusion(), entry.expected_lines))
    for premises, goal, cfg, staged in THEOREMS + [DIRECT_W2]:
        result = _theorem_result(calls, premises, goal, cfg, staged)
        if not result.proved:
            raise SystemExit(f"set-up: the prover did not prove {_sequent(premises, goal)}")
        text = print_proof_script(result.proof, f"proved {','.join(premises)} |- {goal}")
        mode = "staged" if staged else "direct"
        scripts.append((f"emitted:{_sequent(premises, goal)} {mode}", text, _axioms(premises),
                        axiom(goal), None))
    rng.shuffle(scripts)

    def op(text):
        def run():
            proof = calls.parse(text)
            return proof, calls.check(proof)
        return run

    def check(results):
        problems = []
        for (label, _, premises, conclusion, lines), (proof, report) in zip(scripts, results):
            if not _certifies(report, premises, conclusion):
                problems.append(f"{label}: does not certify its sequent ({report.message})")
            if lines is not None and len(proof.lines) != lines:
                problems.append(f"{label}: {len(proof.lines)} lines, transcribed {lines}")
        return problems

    def digest(result):
        proof, report = result
        return (report.valid, len(proof.lines), canonical_key(report.conclusion),
                tuple(canonical_key(p) for p in report.premises))

    return Workload("check", [Op("script", s[0], op(s[1])) for s in scripts], check, digest)


def corpus_mutants() -> list[tuple[str, Proof]]:
    """Every single-line formula substitution drawn from the same proof's
    other, canonically distinct formulas (acceptance criterion 2)."""
    out = []
    for cid in corpus.corpus_ids():
        proof, _ = corpus.load(cid)
        keys = [canonical_key(line.formula) for line in proof.lines]
        pool = {}
        for key, line in zip(keys, proof.lines):
            pool.setdefault(key, line.formula)
        for i, line in enumerate(proof.lines):
            for key, formula in pool.items():
                if key == keys[i]:
                    continue
                lines = list(proof.lines)
                lines[i] = dataclasses.replace(line, formula=formula)
                out.append((f"{cid}:{line.number}", Proof(proof.premises, lines, proof.show)))
    return out


def build_mutants(rng: random.Random, calls: Calls) -> Workload:
    """Check one pre-parsed formula mutant of a corpus transcript per
    operation; the kernel runs on its reject path."""
    mutants = corpus_mutants()
    rng.shuffle(mutants)

    def check(results):
        problems = []
        for (label, _), report in zip(mutants, results):
            if report.valid and oracle.has_countermodel(report.premises,
                                                        oracle.closure(report.conclusion)):
                problems.append(f"mutant {label}: accepted, but has a countermodel of size <= 3")
        return problems

    ops = [Op("mutant", label, (lambda p=proof: calls.check(p))) for label, proof in mutants]
    return Workload("mutants", ops, check, lambda r: (r.valid, r.line, r.kind, r.message))


def random_draws(rng: random.Random) -> list[tuple[tuple[str, ...], str]]:
    """Sequents over the catalog in a seeded order: for every goal, the one
    with no premise, the nine with one premise, and one seeded random pair
    of premises.  A draw's search takes from 0.1 ms to 350 ms, so fully
    random draws move op_p90_ms by a quarter or more from seed to seed;
    enumerating the small sequents keeps the seed's share of the mix small.
    A goal is never among its own premises: prove() fails on X |- X, which
    the fixed I5 |- I5 operation already counts."""
    draws = []
    for goal in DRAW_NAMES:
        others = [n for n in DRAW_NAMES if n != goal]
        draws.append(((), goal))
        draws.extend(((p,), goal) for p in others)
        draws.append((tuple(rng.sample(others, 2)), goal))
    rng.shuffle(draws)
    return draws


def build_search(rng: random.Random, calls: Calls) -> Workload:
    """Eight fixed sequents at the acceptance configs, then seeded random
    draws at the soundness-fuzz config."""
    ops, sequents = [], []
    for premises, goal, cfg, staged in THEOREMS:
        sequents.append((premises, goal))
        ops.append(Op("theorem", _sequent(premises, goal),
                      (lambda a=(premises, goal, cfg, staged): _theorem_result(calls, *a))))
    neg_premises, neg_goal, neg_cfg = NEGATIVE
    sequents.append((neg_premises, neg_goal))
    ops.append(Op("negative", _sequent(neg_premises, neg_goal),
                  lambda: calls.prove(_axioms(neg_premises), axiom(neg_goal), neg_cfg)))
    sequents.append((("I5",), "I5"))
    ops.append(Op("identity", _sequent(("I5",), "I5"),
                  lambda: calls.prove([axiom("I5")], axiom("I5"), FUZZ),
                  failed=lambda result: not result.proved))
    for premises, goal in random_draws(rng):
        sequents.append((premises, goal))
        ops.append(Op("draw", _sequent(premises, goal),
                      (lambda p=premises, g=goal: calls.prove(_axioms(p), axiom(g), FUZZ))))

    def check(results):
        problems = []
        refuted: dict = {}
        for op, (premises, goal), result in zip(ops, sequents, results):
            if op.kind == "theorem" and not result.proved:
                problems.append(f"{op.label}: not proved ({result.status})")
            if op.kind == "negative" and result.proved:
                problems.append(f"{op.label}: proved, but it does not follow")
            if not result.proved:
                continue
            if not _certifies(check_proof(result.proof), _axioms(premises), axiom(goal)):
                problems.append(f"{op.label}: the proof does not certify exactly this sequent")
            if (premises, goal) not in refuted:
                refuted[premises, goal] = oracle.has_countermodel(_axioms(premises), axiom(goal))
            if refuted[premises, goal]:
                problems.append(f"{op.label}: proved, but has a countermodel of size <= 3")
        return problems

    def digest(result):
        script = print_proof_script(result.proof) if result.proved else None
        return result.status, result.stats.lines_generated, result.stats.instantiations_tried, script

    return Workload("search", ops, check, digest)


def equivalences() -> list[tuple[str, object, object]]:
    """The size-3 equivalence oracles of acceptance criterion 6, each one
    the paper proves."""
    out = [
        ("I7 == W1&W2&W3&W4", axiom("I7"), build_and(w_decomposition())),
        ("I7 == expanded I7conv", axiom("I7"), expand_defs(axiom("I7conv"))),
    ]
    for name in ("W1", "W2", "W3", "W4"):
        out.append((f"{name} == its Dir/Opp form", axiom(name), expand_defs(defined_form(name))))
    return out


def build_models(rng: random.Random, calls: Calls) -> Workload:
    """Countermodel hits, exhaustive no-countermodel scans at sizes 3 and 4,
    the size-3 equivalence oracles and one `models --jobs 2` CLI call."""
    ops = []
    for premises, goal, max_n in MODEL_QUERIES:
        kind = "exhaust" if (premises, goal) in ENTAILMENTS else "hit"
        ops.append(Op(kind, f"{_sequent(premises, goal)} up to {max_n}",
                      (lambda p=premises, g=goal, n=max_n: calls.countermodel(_axioms(p), axiom(g), n))))
    for label, f, g in equivalences():
        ops.append(Op("equiv", label, (lambda f=f, g=g: calls.equivalent(f, g, 3))))
    jobs_label = "dirgeo " + " ".join(JOBS_ARGV)
    ops.append(Op("jobs", jobs_label, lambda: calls.cli_main(JOBS_ARGV)))
    queries = {op.label: q for op, q in zip(ops, MODEL_QUERIES)}
    serial_label = ops[MODEL_QUERIES.index((("I6",), "W1", 4))].label
    rng.shuffle(ops)

    def check(results):
        problems = []
        answers = {op.label: answer for op, answer in zip(ops, results)}
        for op, answer in zip(ops, results):
            if op.kind == "equiv" and answer is not True:
                problems.append(f"{op.label}: reported inequivalent; the paper proves it")
            if op.kind not in ("hit", "exhaust"):
                continue
            premises, goal, _ = queries[op.label]
            if answer is None:
                if (premises, goal) not in ENTAILMENTS:
                    problems.append(f"{op.label}: no countermodel, but the paper gives one")
                continue
            why = oracle.countermodel_problems(_axioms(premises), axiom(goal), answer)
            if (premises, goal) in ENTAILMENTS or why:
                problems.append(f"{op.label}: wrong countermodel {answer.describe()} {why}")
        code, records = answers[jobs_label]
        serial = answers[serial_label]
        if code != 0 or records[0]["status"] != ("no-countermodel" if serial is None else "countermodel"):
            problems.append(f"{jobs_label}: exit {code}, {records[0]}, unlike the serial answer")
        return problems

    return Workload("models", ops, check, lambda answer: answer)


FACTORIES = {
    "check": build_check,
    "mutants": build_mutants,
    "search": build_search,
    "models": build_models,
}
WORKLOADS = tuple(FACTORIES)


# -- running -----------------------------------------------------------------------


class Runner:
    """Runs whole passes of one workload, one operation after another, and
    compares every pass with the warm-up pass."""

    def __init__(self, wl: Workload, calls: Calls):
        self.wl = wl
        self.calls = calls
        self.passes = 0
        self.latencies: list[float] = []
        self.busy = 0.0  # time spent inside passes; checks between passes are excluded
        self.failed = 0
        started = time.perf_counter()
        results = self._run_pass(record=False)  # the warm-up pass, with cold caches
        self.first_pass_s = time.perf_counter() - started
        self.reference = [wl.digest(r) for r in results]
        self.problems = wl.check(results)

    def _run_pass(self, record: bool) -> list:
        results = []
        started = time.perf_counter()
        for op in self.wl.ops:
            t0 = time.perf_counter()
            if self.calls.tracer is None:
                result = op.run()
            else:
                result, _ = self.calls.tracer.call("op", op.run, workload=self.wl.name,
                                                   kind=op.kind, label=op.label, **{"pass": self.passes})
            if record:
                self.latencies.append(time.perf_counter() - t0)
            results.append(result)
        if record:
            self.busy += time.perf_counter() - started
        self.passes += 1
        return results

    def timed_pass(self) -> None:
        results = self._run_pass(record=True)
        for op, ref, result in zip(self.wl.ops, self.reference, results):
            self.failed += op.failed(result)
            if self.wl.digest(result) != ref and len(self.problems) < 20:
                self.problems.append(f"{op.label}: pass {self.passes - 1} differs from the warm-up pass")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(dirgeo.__file__).resolve().parent != ROOT / "src" / "dirgeo":
        print(f"perfbench: imported dirgeo from {dirgeo.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    calls = Calls()
    names = [args.workload] + ([w for w in WORKLOADS if w != args.workload] if args.trace else [])
    runners = [Runner(FACTORIES[name](random.Random(args.seed), calls), calls) for name in names]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        calls.tracer = Tracer()
    main_runner = runners[0]
    while main_runner.busy < args.seconds or len(main_runner.latencies) < MIN_OPS:
        main_runner.timed_pass()
    for other in runners[1:]:
        other.timed_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(main_runner.latencies)
    failed = main_runner.failed
    problems = [f"{r.wl.name}: {p}" for r in runners for p in r.problems]
    out = {"correct": not problems, "attempted": attempted, "failed": failed, "problems": problems,
           "first_pass_s": main_runner.first_pass_s,
           "pass_s": main_runner.busy / (main_runner.passes - 1)}
    ops_per_s = (attempted - failed) / main_runner.busy
    if args.trace:
        out["layers"] = layer_metrics(calls.tracer.spans)
        out["traced_ops_per_s"] = ops_per_s
        calls.tracer.write(ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                           workload=args.workload, seed=args.seed)
    else:
        out["metrics"] = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(main_runner.latencies) * 1000.0,
            "op_p90_ms": statistics.quantiles(main_runner.latencies, n=10, method="inclusive")[8] * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
