"""Command-line front end: check, prove, models, corpus.

Exit codes are a stable contract: 0 all verdicts pass, 1 proof-check
failure, 2 parse error, 3 not proved (refuted, exhausted or over budget),
4 expectation mismatch (models --expect-*); in check and corpus a parse
error outranks a failed check.  Axiom names resolve with their defined
relations (CON, DIR, OPP, INOPP) expanded.  Reports print as
human-readable text or as JSON records (--format records) for CI diffing;
a countermodel travels in the record's `countermodel` field.  prove writes
the proof script to stdout, its report to stderr, so `dirgeo prove ... |
dirgeo check -` round-trips.  Each setting has one flag; the search bounds
default to SearchConfig's and obey its rule (non-negative integers).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus as corpus_mod
from .geometry import UnknownAxiom, axiom, expand_defs
from .kernel import ScriptError, check_proof, parse_proof_script, print_proof_script
from .models import MAX_SIZE, eval_formula, find_countermodel
from .search import SearchConfig, prove
from .syntax import ParseError, rule_eq

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_SEARCH_FAILED = 3
EXIT_EXPECTATION = 4


@dataclass
class RunReport:
    command: str
    items: list[dict] = field(default_factory=list)
    exit_code: int = EXIT_OK
    started: float = field(default_factory=time.monotonic)

    def add(self, name: str, status: str, detail: str = "", **extra) -> None:
        self.items.append({"item": name, "status": status, "detail": detail, **extra})

    def error(self, name: str, detail: str) -> "RunReport":
        """Record a bad input (exit 2) and return the report."""
        self.add(name, "error", detail)
        self.exit_code = EXIT_PARSE_ERROR
        return self

    def fail(self, name: str, status: str, detail: str) -> None:
        """Record a failed check: exit 1, unless a parse error has set 2."""
        self.add(name, status, detail)
        if self.exit_code == EXIT_OK:
            self.exit_code = EXIT_CHECK_FAILED

    def emit(self, fmt: str) -> None:
        stream = sys.stderr if self.command == "prove" else sys.stdout
        elapsed = time.monotonic() - self.started
        if fmt == "records":
            for item in self.items:
                record = {"command": self.command, **item}
                print(json.dumps(record), file=stream)
            status = "pass" if self.exit_code == EXIT_OK else "fail"
            summary = {"command": self.command, "item": None, "status": status,
                       "exit_code": self.exit_code, "elapsed": round(elapsed, 4)}
            print(json.dumps(summary), file=stream)
        else:
            for item in self.items:
                line = f"{item['status']:<8} {item['item']}"
                if item.get("detail"):
                    line += f"  {item['detail']}"
                print(line, file=stream)
            overall = "pass" if self.exit_code == EXIT_OK else f"fail (exit {self.exit_code})"
            print(f"{self.command}: {overall} in {elapsed:.2f}s", file=stream)


def _resolve_sequent(args):
    """(premises, goal) as (name, formula) pairs from --from and --goal: the
    premises a comma-separated list, the goal exactly one name.  Defined
    relations are expanded, so check reads what prove emits.  Raises
    UnknownAxiom for a name not in the catalog."""
    names = [s.strip() for s in (args.premises or "").split(",") if s.strip()]
    sequent = [(name, expand_defs(axiom(name))) for name in [*names, args.goal.strip()]]
    return sequent[:-1], sequent[-1]


def _certified(cm, premises, goal):
    """cm, once the reference evaluator confirms it: the scan is untrusted."""
    if cm is not None and (eval_formula(cm, goal) or not all(eval_formula(cm, p) for p in premises)):
        raise RuntimeError(f"internal error: {cm.describe()} is not a countermodel")
    return cm


# -- check -------------------------------------------------------------------

# What reading, parsing or checking a script raises on bad input.
_INPUT_ERRORS = (ScriptError, ParseError, OSError, UnicodeDecodeError)


def _check_script(report: RunReport, name: str, read):
    """(proof, CheckReport) of the valid script that read() returns, for the
    caller to report; else None, with the parse error (exit 2, outranking a
    failed check) or the invalid proof (exit 1) reported under name."""
    try:
        proof = parse_proof_script(read())
        res = check_proof(proof)
    except _INPUT_ERRORS as exc:
        report.add(name, "parse-error", str(exc))
        report.exit_code = EXIT_PARSE_ERROR
        return None
    if not res.valid:
        report.fail(name, "invalid", f"line {res.line} [{res.kind}]: {res.message}")
        return None
    return proof, res


def cmd_check(args) -> RunReport:
    report = RunReport("check")
    for path in args.paths:
        checked = _check_script(
            report, path, lambda: sys.stdin.read() if path == "-" else Path(path).read_text()
        )
        if checked:
            report.add(path, "valid", checked[1].sequent())
    return report


# -- prove -------------------------------------------------------------------


def cmd_prove(args) -> RunReport:
    report = RunReport("prove")
    try:
        premises, (goal_name, goal) = _resolve_sequent(args)
    except UnknownAxiom as exc:
        return report.error(exc.args[0], f"unknown axiom name {exc}")
    try:
        search_cfg = SearchConfig(args.max_depth, args.max_term_depth, args.max_lines)
    except ValueError as exc:
        return report.error(goal_name, str(exc))
    result = prove([f for _, f in premises], goal, search_cfg)
    stats = result.stats
    detail = f"generated={stats.lines_generated} instantiations={stats.instantiations_tried}"
    if result.proved:
        header = f"proved {','.join(n for n, _ in premises)} |- {goal_name}"
        sys.stdout.write(print_proof_script(result.proof, header=header))
        report.add(goal_name, "proved", f"{len(result.proof.lines)} lines, {detail}")
        return report
    extra = {}
    if result.limits:
        detail += f" limit={','.join(result.limits)}"
        extra["limit"] = list(result.limits)
    if _certified(result.countermodel, [f for _, f in premises], goal) is not None:
        detail = f"{result.countermodel.describe()}, {detail}"
        extra["countermodel"] = result.countermodel.to_record()
    report.add(goal_name, result.status, detail, **extra)
    report.exit_code = EXIT_SEARCH_FAILED
    return report


# -- models ------------------------------------------------------------------


def cmd_models(args) -> RunReport:
    report = RunReport("models")
    try:
        premises, (goal_name, goal) = _resolve_sequent(args)
    except UnknownAxiom as exc:
        return report.error(exc.args[0], f"unknown axiom name {exc}")
    premise_formulas = [f for _, f in premises]
    label = f"{','.join(n for n, _ in premises) or '(none)'} |= {goal_name}"
    if not 1 <= args.max_size <= MAX_SIZE:
        return report.error(label, f"--max-size must be in 1..{MAX_SIZE}, got {args.max_size}")

    cm = _certified(find_countermodel(premise_formulas, goal, args.max_size), premise_formulas, goal)
    if cm is None:
        report.add(label, "no-countermodel", f"up to size {args.max_size}")
        if args.expect == "counter":
            report.exit_code = EXIT_EXPECTATION
    else:
        report.add(label, "countermodel", cm.describe(), countermodel=cm.to_record())
        if args.expect == "none":
            report.exit_code = EXIT_EXPECTATION
    return report


# -- corpus ------------------------------------------------------------------


def cmd_corpus(args) -> RunReport:
    report = RunReport("corpus")
    for cid in corpus_mod.corpus_ids():
        checked = _check_script(report, cid, lambda: corpus_mod.script_text(cid))
        if not checked:
            continue
        (proof, res), entry = checked, corpus_mod.ENTRIES[cid]
        problems = []
        if len(proof.lines) != entry.expected_lines:
            problems.append(f"expected {entry.expected_lines} lines, found {len(proof.lines)}")
        declared = entry.declared_premises()
        if len(res.premises) != len(declared) or not all(
            rule_eq(a, b) for a, b in zip(res.premises, declared)
        ):
            problems.append("premises differ from the declared sequent")
        if not rule_eq(res.conclusion, entry.declared_conclusion()):
            problems.append("conclusion differs from the declared sequent")
        if problems:
            report.fail(cid, "mismatch", "; ".join(problems))
        else:
            report.add(cid, "valid", res.sequent())
    return report


# -- entry point ---------------------------------------------------------------


class _UsageError(Exception):
    """A bad command line: (message, prog of the parser that read it)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises _UsageError for main to report; --help still prints the usage."""

    def error(self, message: str):
        raise _UsageError(message, self.prog)


# The option every subcommand takes; main also reads it after a usage error.
_FORMAT = _ArgumentParser(add_help=False)
_FORMAT.add_argument("--format", choices=("text", "records"), default="text", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dirgeo",
        description="Check, search, and semantically probe derivations in the "
        "directed-line geometry fragment.",
    )
    sequent = argparse.ArgumentParser(add_help=False)
    sequent.add_argument("--from", dest="premises", default="", help="comma-separated axiom names")
    sequent.add_argument("--goal", required=True, help="axiom name of the goal")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify proof scripts", parents=[_FORMAT])
    p_check.add_argument("paths", nargs="+", help="script files ('-' for stdin)")
    p_check.set_defaults(func=cmd_check)

    p_prove = sub.add_parser("prove", help="search for a derivation", parents=[_FORMAT, sequent])
    p_prove.add_argument(
        "--max-depth", type=int, default=SearchConfig.max_depth, help="case-split nesting bound"
    )
    p_prove.add_argument(
        "--max-term-depth", type=int, default=SearchConfig.max_term_depth, help="rev-nesting bound"
    )
    p_prove.add_argument(
        "--max-lines", type=int, default=SearchConfig.max_lines, help="derived-formula budget"
    )
    p_prove.set_defaults(func=cmd_prove)

    p_models = sub.add_parser(
        "models", help="search finite structures for countermodels", parents=[_FORMAT, sequent]
    )
    p_models.add_argument("--max-size", type=int, default=3, help="largest domain size")
    # Accepted and ignored: perfbench/workloads.py still passes --jobs 2.
    p_models.add_argument("--jobs", help=argparse.SUPPRESS)
    expect = p_models.add_mutually_exclusive_group()
    expect.add_argument(
        "--expect-none", dest="expect", action="store_const", const="none", default=None
    )
    expect.add_argument("--expect-counter", dest="expect", action="store_const", const="counter")
    p_models.set_defaults(func=cmd_models)

    p_corpus = sub.add_parser("corpus", help="run the bundled golden transcripts", parents=[_FORMAT])
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except _UsageError as exc:
        _usage_error(*exc.args, argv)
    if extra:  # reported by the subcommand, so that its --format holds
        _usage_error(f"unrecognized arguments: {' '.join(extra)}", f"{parser.prog} {args.command}", argv)
    report = args.func(args)
    report.emit(args.format)
    return report.exit_code


def _usage_error(message: str, prog: str, argv: list[str]):
    """Exit 2 with one stderr line, or under a subcommand's --format
    records with an `error` item and the summary record."""
    command = prog.partition(" ")[2]
    try:
        records = command and _FORMAT.parse_known_args(argv)[0].format == "records"
    except _UsageError:  # a bad --format value
        records = False
    if records:
        RunReport(command).error("usage", message).emit("records")
    else:
        print(f"{prog}: error: {message}", file=sys.stderr)
    sys.exit(EXIT_PARSE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
