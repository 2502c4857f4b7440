"""Natural-deduction proof objects and the rule engine that certifies them.

Lines carry Suppes-style dependency sets (the assumption lines a formula
really rests on); CP and CASES discharge dependencies, and a proof is valid
when every line checks and the last line depends on nothing but premises.
Lexical closed-region tracking is layered on top so a cite into a
discharged subproof is reported as a scope violation at the citing line.

Each Rule member states its rule once: its script name and aliases (read
by rule_from_name), its cite count and its Checker handler (read by
add_line).  The eight rules that read the cited line's connective have a
row in RULE_ROWS, which the search reads too; one handler serves the four
rewrites (IMP, SIMP, DE.MORGAN, DISTRIBUTIVE-LAW), one the four two-line
rules (MP, MT, LDS, RDS).  Checker has one rejection path: a handler
returns the new line's dependency set or raises _Reject(message, kind);
Checker.add_line is the only place that turns a _Reject into a Verdict, and
it records the dependencies of an accepted line; a rule that would build a
formula past the node bound (NestingError) rejects the line as "rule" too.

Conventions the checker bakes in (all forced by the transcript corpus):
  - formula comparison is modulo associativity/commutativity of & and |,
    bound-variable renaming, and the view ~(Ex)P == (Ax)~P;
  - CP may discharge vacuously (antecedent never assumed: plain weakening);
  - LDS/RDS and case splits read the top-level | of the cited line
    as written, never the flattened view;
  - two-line citations (MP, MT, LDS, RDS) are order-insensitive;
  - US/EE/EG/SUB substitutions are inferred by syntax.match when no
    annotation is given (EG reads none): exact up to bound-variable names,
    never capturing; a line that no term fits "cannot infer" one.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from .syntax import (
    And,
    Exists,
    Forall,
    Formula,
    GEOMETRY,
    IDENT_RE,
    Implies,
    NestingError,
    Not,
    Or,
    ParseError,
    Signature,
    Term,
    Var,
    canonical_key,
    conjunct_members,
    contradiction_keys,
    de_morgan,
    distributions,
    flatten_or,
    free_vars,
    imp_result,
    match,
    negated_quantifier_view,
    parse_annotation_term,
    parse_formula,
    print_annotation_term,
    print_formula,
    rule_eq,
    substitute,
)


class Rule(Enum):
    """A kernel rule: its script name (the value), how many lines it cites
    and the other names a script may give it.  check is its Checker handler,
    and row (set for the rules of RULE_ROWS) its row there."""

    def __new__(cls, name: str, cites: int, *aliases: str):
        rule = object.__new__(cls)
        rule._value_, rule.cites, rule.aliases = name, cites, aliases
        return rule

    PREMISE = "PREMISE", 0
    ASSUMED_PREMISE = "ASSUMED-PREMISE", 0, "ASSUMED_PREMISE"
    MP = "MP", 2
    MT = "MT", 2
    IMP = "IMP", 1
    LDS = "LDS", 2
    RDS = "RDS", 2
    CP = "CP", 1
    SIMP = "SIMP", 1
    CASE1 = "CASE1", 1
    CASE2 = "CASE2", 1
    CASES = "CASES", 3
    DE_MORGAN = "DE.MORGAN", 1, "DE_MORGAN", "DE-MORGAN", "DEMORGAN"
    DISTRIBUTIVE_LAW = "DISTRIBUTIVE-LAW", 1, "DISTRIBUTIVE_LAW", "DISTRIBUTIVE.LAW"
    SAME = "SAME", 1
    US = "US", 1
    UG = "UG", 1
    EG = "EG", 1
    EE = "EE", 1
    SUB = "SUB", 1


@dataclass(frozen=True, eq=False)
class Rewrite:
    """A rule that rewrites a cited line with connective `connective` into
    one of results(line)."""

    rule: Rule
    connective: type
    results: Callable[[Formula], list[Formula]]
    wrong: str  # the message for a cited line of another connective
    no_result: str | None = None  # ... for one that has no result, if not wrong
    mismatch: str | None = None  # the text after a line that is no result, if not "expected <the first>"


@dataclass(frozen=True, eq=False)
class TwoLineRule:
    """A rule that concludes from a major line with connective `connective`
    and a minor line whose canonical key is among keys(part(major)): the
    part's own (MP), or those of the formulas that contradict it (MT, LDS, RDS)."""

    rule: Rule
    connective: type
    part: Callable[[Formula], Formula]
    keys: Callable[[Formula], tuple]  # the search indexes a major line by them
    conclusion: Callable[[Formula], Formula]
    rejection: str  # the message when no cite order fits

    def fits(self, minor: Formula, g: Formula) -> bool:
        """The kernel's test, in one cite order; a contradiction may also run from minor to part."""
        part = self.part(g)
        return canonical_key(minor) in self.keys(part) or (
            self.keys is contradiction_keys and canonical_key(part) in contradiction_keys(minor))


# The rules that read the connective of a cited line (of the major line, for
# a two-line rule), in the order the search derives them: IMP, MP and MT
# from ->; LDS, RDS and DISTRIBUTIVE-LAW from |; SIMP from &; DE.MORGAN from ~.
RULE_ROWS = (
    Rewrite(Rule.IMP, Implies, lambda g: [imp_result(g)], "IMP: cited line is not an implication"),
    TwoLineRule(Rule.MP, Implies, lambda g: g.left, lambda part: (canonical_key(part),), lambda g: g.right,
                "MP: antecedent mismatch"),
    TwoLineRule(Rule.MT, Implies, lambda g: g.right, contradiction_keys, lambda g: Not(g.left),
                "MT: no cited implication whose consequent is contradicted"),
    TwoLineRule(Rule.LDS, Or, lambda g: g.left, contradiction_keys, lambda g: g.right,
                "LDS: no cited disjunction whose left disjunct is contradicted"),
    TwoLineRule(Rule.RDS, Or, lambda g: g.right, contradiction_keys, lambda g: g.left,
                "RDS: no cited disjunction whose right disjunct is contradicted"),
    Rewrite(Rule.DISTRIBUTIVE_LAW, Or, distributions, "DISTRIBUTIVE-LAW: cited line is not a disjunction",
            no_result="DISTRIBUTIVE-LAW: no conjunction to distribute over"),
    Rewrite(Rule.SIMP, And, conjunct_members, "SIMP: cited line is not a conjunction",
            mismatch="is not a conjunct of the cited line"),
    Rewrite(Rule.DE_MORGAN, Not, lambda g: [] if (d := de_morgan(g)) is None else [d],
            "DE.MORGAN: cited line is not a negated & or |"),
)
TWO_LINE_RULES = tuple(row for row in RULE_ROWS if isinstance(row, TwoLineRule))
ROWS_BY_CONNECTIVE: dict[type, list] = {}
for _row in RULE_ROWS:
    _row.rule.row = _row
    ROWS_BY_CONNECTIVE.setdefault(_row.connective, []).append(_row)

_RULES_BY_NAME = {name: rule for rule in Rule for name in (rule.value, *rule.aliases)}


def rule_from_name(name: str) -> Rule:
    rule = _RULES_BY_NAME.get(name.upper())
    if rule is None:
        raise ValueError(f"unknown rule {name!r}")
    return rule


@dataclass(frozen=True)
class Justification:
    rule: Rule
    cited: tuple[int, ...] = ()
    annot: tuple[tuple[Term, str], ...] = ()  # (term, variable) pairs


@dataclass(frozen=True)
class ProofLine:
    number: int
    formula: Formula
    just: Justification


@dataclass
class Proof:
    premises: list[Formula]
    lines: list[ProofLine]
    show: Formula | None = None  # declared conclusion, if any


@dataclass(frozen=True)
class Verdict:
    ok: bool
    kind: str = "ok"  # ok | rule | scope | structure
    message: str = ""


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    line: int | None
    kind: str
    message: str
    premises: tuple[Formula, ...]
    conclusion: Formula | None

    def sequent(self) -> str:
        left = ", ".join(print_formula(p) for p in self.premises)
        right = print_formula(self.conclusion) if self.conclusion is not None else "?"
        return f"{left} |- {right}" if left else f"|- {right}"


def _instance_term(rule: Rule, annot: tuple, g: Forall | Exists, f: Formula) -> Term | None:
    """The term a US, EE or EG line f puts for g's variable: that of its one
    annotation, or else the one matching binds it to (itself if it does not
    occur), None if g's body does not match f.  The caller checks the instance."""
    if not annot:
        binding = match(g.body, f, frozenset((g.var,)))
        return None if binding is None else binding.get(g.var, Var(g.var))
    if len(annot) != 1:
        raise _Reject(f"{rule.value}: exactly one (term var) annotation expected")
    t, v = annot[0]
    if v != g.var:
        raise _Reject(f"{rule.value}: annotation variable {v!r} does not match bound {g.var!r}")
    return t


@dataclass
class _Frame:
    line: int
    formula: Formula


@dataclass
class _CasePair:
    disj_line: int
    left: Formula
    right: Formula
    # label -> (assumption line, which side)
    opened: dict[str, tuple[int, str]] = field(default_factory=dict)
    closed: bool = False


class _Reject(Exception):
    """Why a line is rejected; add_line turns it into a Verdict."""

    def __init__(self, message: str, kind: str = "rule"):
        super().__init__(message)
        self.kind = kind


def _mismatch(rule: Rule, expected: Formula, found: Formula) -> _Reject:
    return _Reject(f"{rule.value}: expected {print_formula(expected)}, found {print_formula(found)}")


_ACCEPTED = Verdict(True)


class Checker:
    """Incremental line-by-line proof checker."""

    def __init__(self, premises: Sequence[Formula]):
        self.premises = list(premises)
        self.lines: dict[int, ProofLine] = {}
        self.deps: dict[int, frozenset[int]] = {}
        self.assumption_stack: list[_Frame] = []
        self.case_pairs: dict[int, _CasePair] = {}
        self.open_case_lines: dict[int, Formula] = {}
        self.closed_regions: list[tuple[int, int]] = []
        self.ee_witnesses: set[str] = set()
        self.next_number = 1

    # -- helpers ----------------------------------------------------------

    def _require_arbitrary(self, rule: Rule, names: Iterable[str]) -> None:
        """Rejects unless every name is arbitrary: free in no premise or
        open assumption, and not an EE witness."""
        blocked: dict[str, str] = {}
        for p in self.premises:
            for v in free_vars(p):
                blocked.setdefault(v, "a premise")
        for a in [fr.formula for fr in self.assumption_stack] + list(self.open_case_lines.values()):
            for v in free_vars(a):
                blocked.setdefault(v, "an open assumption")
        for name in names:
            if name in self.ee_witnesses:
                raise _Reject(f"{rule.value}: {name} is an existential witness")
            if name in blocked:
                raise _Reject(f"{rule.value}: {name} is free in {blocked[name]}")

    def _cite(self, n: int, j: int) -> ProofLine:
        if j not in self.lines:  # it holds lines 1..n-1, so j >= n too
            raise _Reject(f"line {n} cites nonexistent line {j}", "structure")
        for lo, hi in self.closed_regions:
            if lo <= j <= hi:
                raise _Reject(f"line {n} cites line {j} inside a closed subproof ({lo}..{hi})", "scope")
        return self.lines[j]

    def _union_deps(self, cited: list[ProofLine]) -> set[int]:
        out: set[int] = set()
        for c in cited:
            out |= self.deps[c.number]
        return out

    # -- the rule engine ---------------------------------------------------

    def add_line(self, line: ProofLine) -> Verdict:
        n, just = line.number, line.just
        try:
            if n != self.next_number:
                raise _Reject(
                    f"line numbers must be consecutive: expected {self.next_number}, got {n}", "structure"
                )
            cited = [self._cite(n, j) for j in just.cited]
            rule = just.rule
            if len(cited) != rule.cites:
                raise _Reject(f"{rule.value} takes {rule.cites} cited line(s), got {len(cited)}", "structure")
            deps = rule.check(self, n, line.formula, just, cited)
        except _Reject as exc:
            return Verdict(False, exc.kind, str(exc))
        except NestingError as exc:  # the rule built a formula too tall to exist
            return Verdict(False, "rule", f"{just.rule.value}: {exc}")
        self.deps[n] = frozenset(deps)
        self.lines[n] = line
        self.next_number += 1
        return _ACCEPTED

    # Each _rule_* handler returns the line's dependencies or raises _Reject.

    def _rule_premise(self, n, f, just, cited):
        if not any(rule_eq(f, p) for p in self.premises):
            raise _Reject("PREMISE: formula is not among the declared premises")
        return ()

    def _rule_assumed_premise(self, n, f, just, cited):
        self.assumption_stack.append(_Frame(n, f))
        return (n,)

    def _rule_same(self, n, f, just, cited):
        (c,) = cited
        if not rule_eq(f, c.formula):
            raise _mismatch(Rule.SAME, c.formula, f)
        return self._union_deps(cited)

    def _rule_two_line(self, n, f, just, cited):
        row = just.rule.row
        for major, minor in (cited, cited[::-1]):
            g = major.formula
            if isinstance(g, row.connective) and row.fits(minor.formula, g):
                expected = row.conclusion(g)
                if not rule_eq(f, expected):
                    raise _mismatch(row.rule, expected, f)
                return self._union_deps(cited)
        raise _Reject(row.rejection)

    _rule_mp = _rule_mt = _rule_lds = _rule_rds = _rule_two_line

    def _rule_rewrite(self, n, f, just, cited):
        row = just.rule.row
        g = cited[0].formula
        if not isinstance(g, row.connective):
            raise _Reject(row.wrong)
        results = row.results(g)
        if not results:
            raise _Reject(row.no_result or row.wrong)
        if not any(rule_eq(f, r) for r in results):
            if row.mismatch:
                raise _Reject(f"{row.rule.value}: {print_formula(f)} {row.mismatch}")
            raise _mismatch(row.rule, results[0], f)
        return self._union_deps(cited)

    _rule_imp = _rule_simp = _rule_de_morgan = _rule_distributive_law = _rule_rewrite

    def _rule_cp(self, n, f, just, cited):
        (c,) = cited
        if not isinstance(f, Implies):
            raise _Reject("CP: conclusion is not an implication")
        if not rule_eq(f.right, c.formula):
            raise _mismatch(Rule.CP, Implies(f.left, c.formula), f)
        deps = self._union_deps(cited)
        if self.assumption_stack and rule_eq(self.assumption_stack[-1].formula, f.left):
            frame = self.assumption_stack.pop()
            deps.discard(frame.line)
            self.closed_regions.append((frame.line, n - 1))
        # otherwise a vacuous discharge: A -> B from B alone.
        return deps

    def _rule_case(self, n, f, just, cited):
        label = just.rule.value
        (d,) = cited
        g = d.formula
        if not isinstance(g, Or):
            raise _Reject(f"{label}: cited line is not a disjunction")
        pair = self.case_pairs.get(d.number)
        if pair is None or pair.closed:
            # a line may be case-split again once the previous pair is closed
            pair = _CasePair(d.number, g.left, g.right)
            self.case_pairs[d.number] = pair
        if label in pair.opened:
            raise _Reject(f"{label}: already opened for line {d.number}")
        side = None
        if rule_eq(f, pair.left):
            side = "left"
        if rule_eq(f, pair.right) and side is None:
            side = "right"
        if side is None:
            raise _Reject(f"{label}: formula is neither disjunct of line {d.number}")
        taken = {s for _, s in pair.opened.values()}
        if side in taken:
            # the two labels must cover the two disjuncts bijectively
            other = "right" if side == "left" else "left"
            if not rule_eq(f, getattr(pair, other)):
                raise _Reject(f"{label}: both case labels assume the same disjunct")
            side = other
        pair.opened[label] = (n, side)
        self.open_case_lines[n] = f
        return (n,)

    _rule_case1 = _rule_case2 = _rule_case

    def _rule_cases(self, n, f, just, cited):
        d, p, q = cited
        pair = self.case_pairs.get(d.number)
        if pair is None or len(pair.opened) != 2:
            raise _Reject("CASES: both case branches for the cited disjunction must be opened")
        if pair.closed:
            raise _Reject("CASES: already closed", "scope")
        for b in (p, q):
            if not rule_eq(f, b.formula):
                raise _mismatch(Rule.CASES, b.formula, f)
        asm_lines = [ln for ln, _ in pair.opened.values()]
        c1, c2 = sorted(asm_lines)
        dp = self.deps[p.number] & {c1, c2}
        dq = self.deps[q.number] & {c1, c2}
        if len(dp) > 1 or len(dq) > 1:
            raise _Reject("CASES: a branch conclusion depends on both case assumptions")
        if dp and dq and dp == dq:
            raise _Reject("CASES: both branch conclusions rest on the same case assumption")
        # A staging line with no case dependency holds in either branch.
        # branch-final: each staging line is the last line resting on its case
        for b, db in ((p, dp), (q, dq)):
            for c in db:
                if any(c in dep and m > b.number for m, dep in self.deps.items()):
                    raise _Reject(f"CASES: line {b.number} is not the final line of its case branch")
        deps = set(self.deps[d.number])
        deps |= self.deps[p.number] - {c1, c2}
        deps |= self.deps[q.number] - {c1, c2}
        pair.closed = True
        for ln in asm_lines:
            self.open_case_lines.pop(ln, None)
        self.closed_regions.append((min(asm_lines), n - 1))
        return deps

    def _rule_us(self, n, f, just, cited):
        (c,) = cited
        g = negated_quantifier_view(c.formula)
        if not isinstance(g, Forall):
            raise _Reject("US: cited line is not universal")
        t = _instance_term(Rule.US, just.annot, g, f)
        if t is None:
            raise _Reject("US: cannot infer the instantiation term")
        expected = substitute(g.body, {g.var: t})
        if not rule_eq(f, expected):
            raise _mismatch(Rule.US, expected, f)
        return self._union_deps(cited)

    def _rule_ug(self, n, f, just, cited):
        (c,) = cited
        prefix: list[str] = []
        bodies = [f]  # bodies[k]: f without its first k quantifiers
        while isinstance(bodies[-1], Forall):
            prefix.append(bodies[-1].var)
            bodies.append(bodies[-1].body)
        if not prefix:
            raise _Reject("UG: conclusion is not universally quantified")
        if just.annot:
            # explicit (generalized-variable bound-variable) pairs
            assigned: dict[str, str] = {}
            for t, q in just.annot:
                if not isinstance(t, Var) or q not in prefix:
                    raise _Reject("UG: annotations must pair a free variable with a prefix variable")
                assigned[q] = t.name
            k = len(assigned)
            if set(assigned) != set(prefix[:k]):
                raise _Reject("UG: annotated variables must form the quantifier prefix")
            instance = substitute(bodies[k], {q: Var(u) for q, u in assigned.items()})
            if not rule_eq(instance, c.formula):
                raise _mismatch(Rule.UG, c.formula, instance)
        else:
            targets = sorted(free_vars(c.formula) - free_vars(f))
            for k in range(len(prefix), 0, -1):
                assigned = self._ug_match(prefix[:k], bodies[k], c.formula, targets)
                if assigned is not None:
                    break
            else:
                raise _Reject("UG: conclusion does not generalize the cited line")
        self._require_arbitrary(Rule.UG, assigned.values())
        return self._union_deps(cited)

    @staticmethod
    def _ug_match(qs: list[str], body: Formula, target: Formula, pool: list[str]) -> dict[str, str] | None:
        body_free = free_vars(body)

        def extend(i: int, used: set[str], acc: dict[str, str]) -> dict[str, str] | None:
            if i == len(qs):
                sub = {q: Var(u) for q, u in acc.items()}
                return acc if rule_eq(substitute(body, sub), target) else None
            q = qs[i]
            if q not in body_free:  # vacuous generalization
                return extend(i + 1, used, acc)
            for u in pool:
                if u in used:
                    continue
                acc[q] = u
                got = extend(i + 1, used | {u}, acc)
                if got is not None:
                    return got
                del acc[q]
            return None

        return extend(0, set(), {})

    def _rule_eg(self, n, f, just, cited):
        (c,) = cited
        if not self._eg_matches(f, c.formula):
            raise _Reject("EG: conclusion does not existentially abstract a disjunct of the cited line")
        return self._union_deps(cited)

    @staticmethod
    def _eg_abstracts(e: Formula, source: Formula) -> bool:
        if not isinstance(e, Exists):
            return False
        t = _instance_term(Rule.EG, (), e, source)
        return t is not None and rule_eq(substitute(e.body, {e.var: t}), source)

    def _eg_matches(self, f: Formula, g: Formula) -> bool:
        if self._eg_abstracts(f, g):
            return True
        rest_f, rest_g = [], flatten_or(g)
        for x in flatten_or(f):
            y = next((y for y in rest_g if rule_eq(x, y)), None)
            if y is None:
                rest_f.append(x)
            else:
                rest_g.remove(y)
        return len(rest_f) == len(rest_g) == 1 and self._eg_abstracts(rest_f[0], rest_g[0])

    def _rule_ee(self, n, f, just, cited):
        (c,) = cited
        g = negated_quantifier_view(c.formula)
        if not isinstance(g, Exists):
            raise _Reject("EE: cited line is not existential")
        t = _instance_term(Rule.EE, just.annot, g, f)
        if not isinstance(t, Var):
            raise _Reject("EE: annotation must name a fresh variable" if just.annot
                          else "EE: cannot infer a variable witness")
        witness = t.name
        seen: set[str] = set()
        for p in self.premises:
            seen |= free_vars(p)
        for line in self.lines.values():
            seen |= free_vars(line.formula)
        if witness in seen:
            raise _Reject(f"EE: witness {witness!r} is not fresh")
        expected = substitute(g.body, {g.var: Var(witness)})
        if not rule_eq(f, expected):
            raise _mismatch(Rule.EE, expected, f)
        self.ee_witnesses.add(witness)
        return self._union_deps(cited)

    def _rule_sub(self, n, f, just, cited):
        (c,) = cited
        if just.annot:
            sigma = {v: t for t, v in just.annot}
        else:
            sigma = match(c.formula, f, free_vars(c.formula))
            if sigma is None:
                raise _Reject("SUB: cannot infer a substitution")
        sigma = {v: t for v, t in sigma.items() if t != Var(v)}
        expected = substitute(c.formula, sigma)
        if not rule_eq(f, expected):
            raise _mismatch(Rule.SUB, expected, f)
        self._require_arbitrary(Rule.SUB, sigma)
        return self._union_deps(cited)


# Each rule's handler, read through the rule so that add_line hashes none.
for _rule in Rule:
    _rule.check = getattr(Checker, "_rule_" + _rule.name.lower())


def check_line(proof_so_far: Proof, line: ProofLine) -> Verdict:
    """Certify one candidate line against an already-checked prefix."""
    checker = Checker(proof_so_far.premises)
    for prev in proof_so_far.lines:
        v = checker.add_line(prev)
        if not v.ok:
            return Verdict(False, "structure", f"prefix line {prev.number} invalid: {v.message}")
    return checker.add_line(line)


def check_proof(proof: Proof) -> CheckReport:
    """Certify a whole proof; reports the earliest failing line."""
    checker = Checker(proof.premises)
    premises = tuple(proof.premises)
    conclusion = proof.lines[-1].formula if proof.lines else None

    def fail(line: int | None, kind: str, message: str) -> CheckReport:
        return CheckReport(False, line, kind, message, premises, conclusion)

    if not proof.lines:
        return fail(None, "structure", "empty proof")
    for line in proof.lines:
        v = checker.add_line(line)
        if not v.ok:
            return fail(line.number, v.kind, v.message)
    last = proof.lines[-1].number
    leftover = sorted(checker.deps[last])
    if leftover:
        return fail(last, "structure", f"conclusion still depends on assumption line(s) {leftover}")
    if checker.assumption_stack:
        open_lines = [fr.line for fr in checker.assumption_stack]
        return fail(last, "structure", f"undischarged assumption(s) at line(s) {open_lines}")
    if checker.open_case_lines:
        return fail(last, "structure", f"unclosed case branch(es) at line(s) {sorted(checker.open_case_lines)}")
    witness_leak = checker.ee_witnesses & free_vars(proof.lines[-1].formula)
    if witness_leak:
        return fail(last, "structure", f"existential witness(es) {sorted(witness_leak)} free in the conclusion")
    if proof.show is not None and not rule_eq(proof.show, proof.lines[-1].formula):
        return fail(last, "structure", "conclusion differs from the declared SHOW formula")
    return CheckReport(True, None, "ok", "", premises, conclusion)


# ---------------------------------------------------------------------------
# Proof-script text format.
#
#   # comment
#   PREMISE: <formula>        (zero or more)
#   SHOW: <formula>           (optional)
#   1. <formula>  RULE [(term var) ...] [cited line numbers]
#
# Records may wrap over several physical lines; continuation lines are
# joined until the justification at the end of the record is complete.
#
# parse_proof_script reads each formula text once per call: a repeat (a SHOW
# restating the last line, a PREMISE restated as a proof line) gets the node
# of its first record, keyed on the stripped text.  One name -> Var dict
# serves every formula and annotation of the call, so a repeated variable
# skips the constructor.  Neither outlives the call.

_RECORD_START = re.compile(r"^(PREMISE:|SHOW:|\d+\.)")
# A rule name is the trailing run of _RULE_CHARS from its first letter:
# _RULE_LEAD, the rest of them, is stripped from the front of the run.
_RULE_CHARS = string.ascii_letters + string.digits + "._-"
_RULE_LEAD = string.digits + "._-"


class ScriptError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        where = f" (script line {lineno})" if lineno else ""
        super().__init__(message + where)
        self.lineno = lineno


def _number(text: str, what: str) -> int:
    """int(text) of decimal digits, or a one-line error for too many to convert."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} of {len(text)} digits is too long") from None


def _split_justification(text: str) -> tuple[str, str, list[str], list[int]]:
    """Split '<formula> RULE (annot)... cites...' from the right, in time
    linear in the text.

    Formulas never end in ')' or in a bare integer token, so trailing
    whitespace-separated decimal words are cites, trailing balanced
    parenthesized groups are annotations, and the rule is the trailing run
    of [A-Za-z0-9._-] from its first letter.
    """
    s = text.rstrip()
    words = s.split()
    k = len(words)
    first = 0 if s[:1].isspace() else 1  # a cite follows whitespace
    while k > first and words[k - 1].isdecimal():
        k -= 1
    # Right to left, so that an error names the last long cite.
    cites = [_number(w, "cite") for w in reversed(words[k:])][::-1]
    if cites:
        s = s.rsplit(None, len(cites))[0] if k else ""
    annots: list[str] = []
    end = len(s)
    while end and s[end - 1] == ")":
        depth, i = 1, end - 1
        while depth:
            i -= 1
            if i < 0:
                raise ValueError("unbalanced parentheses in justification")
            depth += (s[i] == ")") - (s[i] == "(")
        annots.append(s[i + 1 : end - 1])
        while i and s[i - 1].isspace():
            i -= 1
        end = i
    annots.reverse()
    s = s[:end]
    rule = s[len(s.rstrip(_RULE_CHARS)) :].lstrip(_RULE_LEAD)
    if not rule:
        raise ValueError("no justification rule found")
    return s[: len(s) - len(rule)], rule, annots, cites


def _records(text: str) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if _RECORD_START.match(stripped):
            out.append((stripped, i))
        elif not out:
            raise ScriptError("expected a line number, PREMISE: or SHOW:", i)
        else:
            prev, start = out[-1]
            out[-1] = (prev + " " + stripped, start)
    return out


def _parse_annot(body: str, signature: Signature, variables: dict) -> tuple[Term, str]:
    parts = body.rsplit(None, 1)
    if len(parts) != 2:
        raise ValueError(f"annotation {body!r} is not '(term var)'")
    term = parse_annotation_term(parts[0].strip(), signature, variables)
    var = parts[1]
    if not IDENT_RE.fullmatch(var):
        raise ValueError(f"annotation variable {var!r} is not an identifier")
    return term, var


def parse_proof_script(text: str, signature: Signature = GEOMETRY) -> Proof:
    premises: list[Formula] = []
    show: Formula | None = None
    lines: list[ProofLine] = []
    formulas: dict[str, Formula] = {}
    variables: dict[str, Var] = {}

    def formula_at(src: str) -> Formula:
        key = src.strip()
        f = formulas.get(key)
        if f is None:
            f = formulas[key] = parse_formula(src, signature, variables)
        return f

    for record, lineno in _records(text):
        try:
            if record.startswith("PREMISE:"):
                premises.append(formula_at(record[len("PREMISE:"):]))
                continue
            if record.startswith("SHOW:"):
                show = formula_at(record[len("SHOW:"):])
                continue
            num_text, _, rest = record.partition(".")
            number = _number(num_text, "line number")
            formula_text, rule_name, annot_texts, cite_list = _split_justification(rest)
            try:
                rule = rule_from_name(rule_name)
            except ValueError:
                raise ScriptError(
                    f"line {number}: unknown rule {rule_name!r}", lineno
                ) from None
            annots = tuple(_parse_annot(a, signature, variables) for a in annot_texts)
            formula = formula_at(formula_text)
            lines.append(ProofLine(number, formula, Justification(rule, tuple(cite_list), annots)))
        except ScriptError:
            raise
        except (ParseError, ValueError) as exc:
            raise ScriptError(str(exc), lineno) from exc
    if not lines:
        raise ScriptError("script contains no proof lines")
    return Proof(premises, lines, show)


def print_proof_script(proof: Proof, header: str | None = None) -> str:
    out: list[str] = []
    if header:
        out.extend(f"# {h}" for h in header.splitlines())
    for p in proof.premises:
        out.append(f"PREMISE: {print_formula(p)}")
    if proof.show is not None:
        out.append(f"SHOW: {print_formula(proof.show)}")
    width = max((len(print_formula(l.formula)) for l in proof.lines), default=0)
    for l in proof.lines:
        just = l.just.rule.value
        for t, v in l.just.annot:
            just += f" ({print_annotation_term(t)} {v})"
        if l.just.cited:
            just += " " + " ".join(str(c) for c in l.just.cited)
        text = print_formula(l.formula)
        out.append(f"{l.number}. {text:<{min(width, 100)}}  {just}")
    return "\n".join(out) + "\n"
