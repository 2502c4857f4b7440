"""Natural-deduction proof objects and the rule engine that certifies them.

Lines carry Suppes-style dependency sets (the assumption lines a formula
really rests on); CP and CASES discharge dependencies, and a proof is valid
when every line checks and the last line depends on nothing but premises.
Lexical closed-region tracking is layered on top so a cite into a
discharged subproof is reported as a scope violation at the citing line.

Conventions the checker bakes in (all forced by the transcript corpus):
  - formula comparison is modulo associativity/commutativity of & and |,
    bound-variable renaming, and the view ~(Ex)P == (Ax)~P;
  - CP may discharge vacuously (antecedent never assumed: plain weakening);
  - LDS/RDS and case splits read the top-level | of the cited line
    as written, never the flattened view;
  - two-line citations (MP, MT, LDS, RDS) are order-insensitive;
  - US/EG/SUB substitutions are inferred by matching when no annotation
    is given.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .syntax import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    GEOMETRY,
    IDENT_RE,
    Implies,
    Not,
    Or,
    ParseError,
    Signature,
    Term,
    Var,
    alpha_eq,
    conjunct_members,
    flatten_or,
    formula_terms,
    free_vars,
    imp_result,
    neg,
    negated_quantifier_view,
    parse_annotation_term,
    parse_formula,
    print_annotation_term,
    print_formula,
    rule_eq,
    strip_double_neg,
    substitute,
)


class Rule(Enum):
    PREMISE = "PREMISE"
    ASSUMED_PREMISE = "ASSUMED-PREMISE"
    MP = "MP"
    MT = "MT"
    IMP = "IMP"
    LDS = "LDS"
    RDS = "RDS"
    CP = "CP"
    SIMP = "SIMP"
    CASE1 = "CASE1"
    CASE2 = "CASE2"
    CASES = "CASES"
    DE_MORGAN = "DE.MORGAN"
    DISTRIBUTIVE_LAW = "DISTRIBUTIVE-LAW"
    SAME = "SAME"
    US = "US"
    UG = "UG"
    EG = "EG"
    EE = "EE"
    SUB = "SUB"


_RULE_ALIASES = {
    "ASSUMED_PREMISE": Rule.ASSUMED_PREMISE,
    "DE_MORGAN": Rule.DE_MORGAN,
    "DE-MORGAN": Rule.DE_MORGAN,
    "DEMORGAN": Rule.DE_MORGAN,
    "DISTRIBUTIVE_LAW": Rule.DISTRIBUTIVE_LAW,
    "DISTRIBUTIVE.LAW": Rule.DISTRIBUTIVE_LAW,
}


# How many lines each rule cites.
_CITE_COUNTS = {
    Rule.PREMISE: 0, Rule.ASSUMED_PREMISE: 0, Rule.MP: 2, Rule.MT: 2,
    Rule.IMP: 1, Rule.LDS: 2, Rule.RDS: 2, Rule.CP: 1, Rule.SIMP: 1,
    Rule.CASE1: 1, Rule.CASE2: 1, Rule.CASES: 3, Rule.DE_MORGAN: 1,
    Rule.DISTRIBUTIVE_LAW: 1, Rule.SAME: 1, Rule.US: 1, Rule.UG: 1,
    Rule.EG: 1, Rule.EE: 1, Rule.SUB: 1,
}


_RULES_BY_NAME = {r.value: r for r in Rule} | _RULE_ALIASES


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
    depth: int = 0  # assumption-nesting depth; authoritative values come from check


@dataclass
class Proof:
    premises: list[Formula]
    lines: list[ProofLine]
    show: Formula | None = None  # declared conclusion, if any

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula


@dataclass(frozen=True)
class Verdict:
    ok: bool
    kind: str = "ok"  # ok | rule | scope | structure
    message: str = ""

    @classmethod
    def violation(cls, kind: str, message: str) -> "Verdict":
        return cls(False, kind, message)


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    line: int | None
    kind: str
    message: str
    premises: tuple[Formula, ...]
    conclusion: Formula | None
    depths: tuple[int, ...] = ()

    def sequent(self) -> str:
        left = ", ".join(print_formula(p) for p in self.premises)
        right = print_formula(self.conclusion) if self.conclusion is not None else "?"
        return f"{left} |- {right}" if left else f"|- {right}"


def _contradicts(f: Formula, g: Formula) -> bool:
    """Complementary modulo one double negation, alpha, and the
    negated-quantifier view (the latter two live in rule_eq)."""
    for a, b in ((f, g), (strip_double_neg(f), strip_double_neg(g))):
        if isinstance(a, Not) and rule_eq(a.body, b):
            return True
        if isinstance(b, Not) and rule_eq(b.body, a):
            return True
    return False


def _candidate_terms(f: Formula) -> list[Term]:
    """Distinct term occurrences of f, for substitution inference."""
    return list(dict.fromkeys(formula_terms(f)))


def _infer_single_subst(body: Formula, var: str, target: Formula) -> Term | None:
    """A term t with body[var := t] equal (mod alpha) to target, if any."""
    if var not in free_vars(body):
        return None if not alpha_eq(body, target) else Var(var)
    for t in _candidate_terms(target):
        if alpha_eq(substitute(body, {var: t}), target):
            return t
    return None


def _match_vars_to_terms(pattern: Formula, target: Formula, eligible: frozenset[str]) -> dict[str, Term] | None:
    """One-sided structural matching: bindings for eligible free variables of
    `pattern` making it equal to `target`.  Bound variables must align."""
    binding: dict[str, Term] = {}

    def terms(p: Term, t: Term, bound: dict[str, str]) -> bool:
        if isinstance(p, Var):
            if p.name in bound:
                return isinstance(t, Var) and bound[p.name] == t.name
            if p.name in eligible:
                if p.name in binding:
                    return binding[p.name] == t
                binding[p.name] = t
                return True
            return p == t
        if isinstance(t, Var) or p.fn != t.fn or len(p.args) != len(t.args):
            return False
        return all(terms(a, b, bound) for a, b in zip(p.args, t.args))

    def walk(p: Formula, t: Formula, bound: dict[str, str]) -> bool:
        if type(p) is not type(t):
            return False
        if isinstance(p, Atom):
            return p.pred == t.pred and len(p.args) == len(t.args) and all(
                terms(a, b, bound) for a, b in zip(p.args, t.args)
            )
        if isinstance(p, Not):
            return walk(p.body, t.body, bound)
        if isinstance(p, (And, Or, Implies)):
            return walk(p.left, t.left, bound) and walk(p.right, t.right, bound)
        if isinstance(p, (Forall, Exists)):
            b2 = dict(bound)
            b2[p.var] = t.var
            return walk(p.body, t.body, b2)
        return False

    return binding if walk(pattern, target, {}) else None


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


class Checker:
    """Incremental line-by-line proof checker."""

    def __init__(self, premises: Sequence[Formula]):
        self.premises = list(premises)
        self.lines: dict[int, ProofLine] = {}
        self.deps: dict[int, frozenset[int]] = {}
        self.depths: dict[int, int] = {}
        self.assumption_stack: list[_Frame] = []
        self.case_pairs: dict[int, _CasePair] = {}
        self.open_case_lines: dict[int, Formula] = {}
        self.closed_regions: list[tuple[int, int]] = []
        self.ee_witnesses: set[str] = set()
        self.next_number = 1

    # -- helpers ----------------------------------------------------------

    def _open_assumption_formulas(self) -> list[Formula]:
        out = [fr.formula for fr in self.assumption_stack]
        out.extend(self.open_case_lines.values())
        return out

    def _eligible_for_generalization(self, names: Iterable[str]) -> str | None:
        """Returns an offending context description if some name is not
        arbitrary (free in a premise or open assumption, or an EE witness)."""
        blocked: dict[str, str] = {}
        for p in self.premises:
            for v in free_vars(p):
                blocked.setdefault(v, "a premise")
        for a in self._open_assumption_formulas():
            for v in free_vars(a):
                blocked.setdefault(v, "an open assumption")
        for name in names:
            if name in self.ee_witnesses:
                return f"{name} is an existential witness"
            if name in blocked:
                return f"{name} is free in {blocked[name]}"
        return None

    def _cite(self, n: int, j: int) -> ProofLine | Verdict:
        if j not in self.lines:
            return Verdict.violation("structure", f"line {n} cites nonexistent line {j}")
        if j >= n:
            return Verdict.violation("structure", f"line {n} cites a later line {j}")
        for lo, hi in self.closed_regions:
            if lo <= j <= hi:
                return Verdict.violation(
                    "scope", f"line {n} cites line {j} inside a closed subproof ({lo}..{hi})"
                )
        return self.lines[j]

    def _mismatch(self, rule: Rule, expected: Formula, found: Formula) -> Verdict:
        return Verdict.violation(
            "rule",
            f"{rule.value}: expected {print_formula(expected)}, found {print_formula(found)}",
        )

    # -- the rule engine ---------------------------------------------------

    def add_line(self, line: ProofLine) -> Verdict:
        n = line.number
        if n != self.next_number:
            return Verdict.violation(
                "structure", f"line numbers must be consecutive: expected {self.next_number}, got {n}"
            )
        verdict = self._check(line)
        if verdict.ok:
            self.lines[n] = line
            self.next_number += 1
        return verdict

    def _check(self, line: ProofLine) -> Verdict:
        n, f, just = line.number, line.formula, line.just
        rule = just.rule

        cited: list[ProofLine] = []
        for j in just.cited:
            got = self._cite(n, j)
            if isinstance(got, Verdict):
                return got
            cited.append(got)

        expect_cites = _CITE_COUNTS[rule]
        if len(cited) != expect_cites:
            return Verdict.violation(
                "structure", f"{rule.value} takes {expect_cites} cited line(s), got {len(cited)}"
            )

        verdict, deps = _HANDLERS[rule](self, n, f, just, cited)
        if not verdict.ok:
            return verdict
        self.deps[n] = frozenset(deps)
        self.depths[n] = len(self.assumption_stack) + len(self.open_case_lines)
        return verdict

    def _union_deps(self, cited: list[ProofLine]) -> set[int]:
        out: set[int] = set()
        for c in cited:
            out |= self.deps[c.number]
        return out

    def _rule_premise(self, n, f, just, cited):
        if not any(rule_eq(f, p) for p in self.premises):
            return Verdict.violation("rule", "PREMISE: formula is not among the declared premises"), set()
        return Verdict(True), set()

    def _rule_assumed_premise(self, n, f, just, cited):
        self.assumption_stack.append(_Frame(n, f))
        return Verdict(True), {n}

    def _rule_same(self, n, f, just, cited):
        (c,) = cited
        if not rule_eq(f, c.formula):
            return self._mismatch(Rule.SAME, c.formula, f), set()
        return Verdict(True), self._union_deps(cited)

    def _rule_mp(self, n, f, just, cited):
        for impl, minor in (cited, reversed(cited)):
            g = impl.formula
            if isinstance(g, Implies) and rule_eq(minor.formula, g.left):
                if rule_eq(f, g.right):
                    return Verdict(True), self._union_deps(cited)
                return self._mismatch(Rule.MP, g.right, f), set()
        return Verdict.violation("rule", "MP: antecedent mismatch"), set()

    def _rule_mt(self, n, f, just, cited):
        for impl, minor in (cited, reversed(cited)):
            g = impl.formula
            if isinstance(g, Implies) and _contradicts(minor.formula, g.right):
                if rule_eq(f, Not(g.left)):
                    return Verdict(True), self._union_deps(cited)
                return self._mismatch(Rule.MT, Not(g.left), f), set()
        return Verdict.violation("rule", "MT: no cited implication whose consequent is contradicted"), set()

    def _rule_imp(self, n, f, just, cited):
        (c,) = cited
        if not isinstance(c.formula, Implies):
            return Verdict.violation("rule", "IMP: cited line is not an implication"), set()
        expected = imp_result(c.formula)
        if not rule_eq(f, expected):
            return self._mismatch(Rule.IMP, expected, f), set()
        return Verdict(True), self._union_deps(cited)

    def _rule_lds(self, n, f, just, cited):
        return self._disjunctive_syllogism(n, f, cited, left_side=True)

    def _rule_rds(self, n, f, just, cited):
        return self._disjunctive_syllogism(n, f, cited, left_side=False)

    def _disjunctive_syllogism(self, n, f, cited, left_side: bool):
        rule = Rule.LDS if left_side else Rule.RDS
        for disj, unit in (cited, list(reversed(cited))):
            g = disj.formula
            if not isinstance(g, Or):
                continue
            cancelled, kept = (g.left, g.right) if left_side else (g.right, g.left)
            if _contradicts(unit.formula, cancelled):
                if rule_eq(f, kept):
                    return Verdict(True), self._union_deps(cited)
                return self._mismatch(rule, kept, f), set()
        return (
            Verdict.violation(
                "rule",
                f"{rule.value}: no cited disjunction whose "
                f"{'left' if left_side else 'right'} disjunct is contradicted",
            ),
            set(),
        )

    def _rule_cp(self, n, f, just, cited):
        (c,) = cited
        if not isinstance(f, Implies):
            return Verdict.violation("rule", "CP: conclusion is not an implication"), set()
        if not rule_eq(f.right, c.formula):
            return self._mismatch(Rule.CP, Implies(f.left, c.formula), f), set()
        deps = self._union_deps(cited)
        if self.assumption_stack and rule_eq(self.assumption_stack[-1].formula, f.left):
            frame = self.assumption_stack.pop()
            deps.discard(frame.line)
            self.closed_regions.append((frame.line, n - 1))
        # otherwise a vacuous discharge: A -> B from B alone.
        return Verdict(True), deps

    def _rule_simp(self, n, f, just, cited):
        (c,) = cited
        members = conjunct_members(c.formula)
        if not members:
            return Verdict.violation("rule", "SIMP: cited line is not a conjunction"), set()
        if not any(rule_eq(f, m) for m in members):
            return Verdict.violation(
                "rule", f"SIMP: {print_formula(f)} is not a conjunct of the cited line"
            ), set()
        return Verdict(True), self._union_deps(cited)

    def _rule_de_morgan(self, n, f, just, cited):
        (c,) = cited
        g = c.formula
        if isinstance(g, Not) and isinstance(g.body, And):
            expected: Formula = Or(neg(g.body.left), neg(g.body.right))
        elif isinstance(g, Not) and isinstance(g.body, Or):
            expected = And(neg(g.body.left), neg(g.body.right))
        else:
            return Verdict.violation("rule", "DE.MORGAN: cited line is not a negated & or |"), set()
        if not rule_eq(f, expected):
            return self._mismatch(Rule.DE_MORGAN, expected, f), set()
        return Verdict(True), self._union_deps(cited)

    def _rule_distributive_law(self, n, f, just, cited):
        (c,) = cited
        g = c.formula
        if not isinstance(g, Or):
            return Verdict.violation("rule", "DISTRIBUTIVE-LAW: cited line is not a disjunction"), set()
        expected: list[Formula] = []
        if isinstance(g.left, And):
            expected.append(And(Or(g.left.left, g.right), Or(g.left.right, g.right)))
        if isinstance(g.right, And):
            expected.append(And(Or(g.left, g.right.left), Or(g.left, g.right.right)))
        if not expected:
            return Verdict.violation("rule", "DISTRIBUTIVE-LAW: no conjunction to distribute over"), set()
        if not any(rule_eq(f, e) for e in expected):
            return self._mismatch(Rule.DISTRIBUTIVE_LAW, expected[0], f), set()
        return Verdict(True), self._union_deps(cited)

    def _rule_case1(self, n, f, just, cited):
        return self._case_open(n, f, cited, "CASE1")

    def _rule_case2(self, n, f, just, cited):
        return self._case_open(n, f, cited, "CASE2")

    def _case_open(self, n, f, cited, label: str):
        (d,) = cited
        g = d.formula
        if not isinstance(g, Or):
            return Verdict.violation("rule", f"{label}: cited line is not a disjunction"), set()
        pair = self.case_pairs.get(d.number)
        if pair is None or pair.closed:
            # a line may be case-split again once the previous pair is closed
            pair = _CasePair(d.number, g.left, g.right)
            self.case_pairs[d.number] = pair
        if label in pair.opened:
            return Verdict.violation("rule", f"{label}: already opened for line {d.number}"), set()
        side = None
        if rule_eq(f, pair.left):
            side = "left"
        if rule_eq(f, pair.right) and side is None:
            side = "right"
        if side is None:
            return Verdict.violation(
                "rule", f"{label}: formula is neither disjunct of line {d.number}"
            ), set()
        taken = {s for _, s in pair.opened.values()}
        if side in taken:
            # the two labels must cover the two disjuncts bijectively
            other = "right" if side == "left" else "left"
            if rule_eq(f, getattr(pair, other)):
                side = other
            else:
                return Verdict.violation(
                    "rule", f"{label}: both case labels assume the same disjunct"
                ), set()
        pair.opened[label] = (n, side)
        self.open_case_lines[n] = f
        return Verdict(True), {n}

    def _rule_cases(self, n, f, just, cited):
        d, p, q = cited
        pair = self.case_pairs.get(d.number)
        if pair is None or len(pair.opened) != 2:
            return Verdict.violation(
                "rule", "CASES: both case branches for the cited disjunction must be opened"
            ), set()
        if pair.closed:
            return Verdict.violation("scope", "CASES: already closed"), set()
        for b in (p, q):
            if not rule_eq(f, b.formula):
                return self._mismatch(Rule.CASES, b.formula, f), set()
        asm_lines = [ln for ln, _ in pair.opened.values()]
        c1, c2 = sorted(asm_lines)

        def classify(b: ProofLine) -> set[int]:
            return self.deps[b.number] & {c1, c2}

        dp, dq = classify(p), classify(q)
        if len(dp) > 1 or len(dq) > 1:
            return Verdict.violation(
                "rule", "CASES: a branch conclusion depends on both case assumptions"
            ), set()
        if dp and dq and dp == dq:
            return Verdict.violation(
                "rule", "CASES: both branch conclusions rest on the same case assumption"
            ), set()
        # A staging line with no case dependency holds in either branch.
        # branch-final: each staging line is the last line resting on its case
        for b, db in ((p, dp), (q, dq)):
            for c in db:
                later = [m for m, dep in self.deps.items() if c in dep and m > b.number]
                if later:
                    return Verdict.violation(
                        "rule",
                        f"CASES: line {b.number} is not the final line of its case branch",
                    ), set()
        deps = set(self.deps[d.number])
        deps |= self.deps[p.number] - {c1, c2}
        deps |= self.deps[q.number] - {c1, c2}
        pair.closed = True
        for ln in asm_lines:
            self.open_case_lines.pop(ln, None)
        self.closed_regions.append((min(asm_lines), n - 1))
        return Verdict(True), deps

    def _rule_us(self, n, f, just, cited):
        (c,) = cited
        g = negated_quantifier_view(c.formula)
        if not isinstance(g, Forall):
            return Verdict.violation("rule", "US: cited line is not universal"), set()
        if just.annot:
            if len(just.annot) != 1:
                return Verdict.violation("rule", "US: exactly one (term var) annotation expected"), set()
            t, v = just.annot[0]
            if v != g.var:
                return Verdict.violation(
                    "rule", f"US: annotation variable {v!r} does not match bound {g.var!r}"
                ), set()
        else:
            t = _infer_single_subst(g.body, g.var, f)
            if t is None:
                return Verdict.violation("rule", "US: cannot infer the instantiation term"), set()
        expected = substitute(g.body, {g.var: t})
        if not rule_eq(f, expected):
            return self._mismatch(Rule.US, expected, f), set()
        return Verdict(True), self._union_deps(cited)

    def _rule_ug(self, n, f, just, cited):
        (c,) = cited
        prefix: list[str] = []
        body: Formula = f
        while isinstance(body, Forall):
            prefix.append(body.var)
            body = body.body
        if not prefix:
            return Verdict.violation("rule", "UG: conclusion is not universally quantified"), set()
        if just.annot:
            # explicit (generalized-variable bound-variable) pairs
            explicit: dict[str, str] = {}
            for t, q in just.annot:
                if not isinstance(t, Var) or q not in prefix:
                    return Verdict.violation(
                        "rule", "UG: annotations must pair a free variable with a prefix variable"
                    ), set()
                explicit[q] = t.name
            k = len(explicit)
            if set(explicit) != set(prefix[:k]):
                return Verdict.violation(
                    "rule", "UG: annotated variables must form the quantifier prefix"
                ), set()
            bk: Formula = f
            for _ in range(k):
                bk = bk.body  # type: ignore[union-attr]
            sub = {q: Var(u) for q, u in explicit.items()}
            if not rule_eq(substitute(bk, sub), c.formula):
                return self._mismatch(Rule.UG, c.formula, substitute(bk, sub)), set()
            bad = self._eligible_for_generalization(explicit.values())
            if bad is not None:
                return Verdict.violation("rule", f"UG: {bad}"), set()
            return Verdict(True), self._union_deps(cited)
        targets = sorted(free_vars(c.formula) - free_vars(f))
        for k in range(len(prefix), 0, -1):
            bk = f
            for _ in range(k):
                bk = bk.body  # type: ignore[union-attr]
            qs = prefix[:k]
            assigned = self._ug_match(qs, bk, c.formula, targets)
            if assigned is None:
                continue
            bad = self._eligible_for_generalization(assigned.values())
            if bad is not None:
                return Verdict.violation("rule", f"UG: {bad}"), set()
            return Verdict(True), self._union_deps(cited)
        return Verdict.violation(
            "rule", "UG: conclusion does not generalize the cited line"
        ), set()

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
        ok = self._eg_matches(f, c.formula)
        if not ok:
            return Verdict.violation(
                "rule", "EG: conclusion does not existentially abstract a disjunct of the cited line"
            ), set()
        return Verdict(True), self._union_deps(cited)

    @staticmethod
    def _eg_abstracts(e: Formula, source: Formula) -> bool:
        return isinstance(e, Exists) and _infer_single_subst(e.body, e.var, source) is not None

    def _eg_matches(self, f: Formula, g: Formula) -> bool:
        if self._eg_abstracts(f, g):
            return True
        fc = flatten_or(f)
        gc = flatten_or(g)
        if len(fc) != len(gc):
            return False
        remaining_f = list(fc)
        remaining_g = list(gc)
        for x in fc:
            for y in remaining_g:
                if rule_eq(x, y):
                    remaining_f.remove(x)
                    remaining_g.remove(y)
                    break
        if len(remaining_f) != 1 or len(remaining_g) != 1:
            return False
        return self._eg_abstracts(remaining_f[0], remaining_g[0])

    def _rule_ee(self, n, f, just, cited):
        (c,) = cited
        g = negated_quantifier_view(c.formula)
        if not isinstance(g, Exists):
            return Verdict.violation("rule", "EE: cited line is not existential"), set()
        if just.annot:
            t, v = just.annot[0]
            if v != g.var or not isinstance(t, Var):
                return Verdict.violation("rule", "EE: annotation must name a fresh variable"), set()
            witness = t.name
        else:
            t = _infer_single_subst(g.body, g.var, f)
            if not isinstance(t, Var):
                return Verdict.violation("rule", "EE: cannot infer a variable witness"), set()
            witness = t.name
        seen: set[str] = set()
        for p in self.premises:
            seen |= free_vars(p)
        for line in self.lines.values():
            seen |= free_vars(line.formula)
        if witness in seen:
            return Verdict.violation(
                "rule", f"EE: witness {witness!r} is not fresh"
            ), set()
        expected = substitute(g.body, {g.var: Var(witness)})
        if not rule_eq(f, expected):
            return self._mismatch(Rule.EE, expected, f), set()
        self.ee_witnesses.add(witness)
        return Verdict(True), self._union_deps(cited)

    def _rule_sub(self, n, f, just, cited):
        (c,) = cited
        if just.annot:
            sigma = {v: t for t, v in just.annot}
        else:
            eligible = free_vars(c.formula)
            sigma = _match_vars_to_terms(c.formula, f, eligible)
            if sigma is None:
                return Verdict.violation("rule", "SUB: cannot infer a substitution"), set()
        sigma = {v: t for v, t in sigma.items() if t != Var(v)}
        expected = substitute(c.formula, sigma)
        if not rule_eq(f, expected):
            return self._mismatch(Rule.SUB, expected, f), set()
        bad = self._eligible_for_generalization(sigma.keys())
        if bad is not None:
            return Verdict.violation("rule", f"SUB: {bad}"), set()
        return Verdict(True), self._union_deps(cited)


# Each rule's Checker method, looked up once.
_HANDLERS = {rule: getattr(Checker, "_rule_" + rule.name.lower()) for rule in Rule}


def check_line(proof_so_far: Proof, line: ProofLine) -> Verdict:
    """Certify one candidate line against an already-checked prefix."""
    checker = Checker(proof_so_far.premises)
    for prev in proof_so_far.lines:
        v = checker.add_line(prev)
        if not v.ok:
            return Verdict.violation("structure", f"prefix line {prev.number} invalid: {v.message}")
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
    depths = tuple(checker.depths[l.number] for l in proof.lines)
    return CheckReport(True, None, "ok", "", premises, conclusion, depths)


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

_RECORD_START = re.compile(r"^(PREMISE:|SHOW:|\d+\.)")
_RULE_TAIL = re.compile(r"([A-Za-z][A-Za-z0-9._\-]*)$")
_CITE_TAIL = re.compile(r"\s(\d+)$")


class ScriptError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        where = f" (script line {lineno})" if lineno else ""
        super().__init__(message + where)
        self.lineno = lineno


def _split_justification(text: str) -> tuple[str, str, list[str], list[int]]:
    """Split '<formula> RULE (annot)... cites...' from the right.

    Formulas never end in ')' or in a bare integer token, so trailing
    parenthesized groups are annotations and trailing integers are cites.
    """
    s = text.rstrip()
    cites: list[int] = []
    while True:
        m = _CITE_TAIL.search(s)
        if not m:
            break
        cites.append(int(m.group(1)))
        s = s[: m.start()].rstrip()
    cites.reverse()
    annots: list[str] = []
    while s.endswith(")"):
        depth = 0
        start = None
        for i in range(len(s) - 1, -1, -1):
            if s[i] == ")":
                depth += 1
            elif s[i] == "(":
                depth -= 1
                if depth == 0:
                    start = i
                    break
        if start is None:
            raise ValueError("unbalanced parentheses in justification")
        annots.append(s[start + 1 : -1])
        s = s[:start].rstrip()
    annots.reverse()
    m = _RULE_TAIL.search(s)
    if not m:
        raise ValueError("no justification rule found")
    return s[: m.start()], m.group(1), annots, cites


def _records(text: str) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if _RECORD_START.match(stripped) or not out:
            out.append((stripped, i))
        else:
            prev, start = out[-1]
            out[-1] = (prev + " " + stripped, start)
    return out


def _parse_annot(body: str, signature: Signature) -> tuple[Term, str]:
    parts = body.strip().rsplit(" ", 1)
    if len(parts) != 2:
        raise ValueError(f"annotation {body!r} is not '(term var)'")
    term = parse_annotation_term(parts[0].strip(), signature)
    var = parts[1].strip()
    if not IDENT_RE.fullmatch(var):
        raise ValueError(f"annotation variable {var!r} is not an identifier")
    return term, var


def parse_proof_script(text: str, signature: Signature = GEOMETRY) -> Proof:
    premises: list[Formula] = []
    show: Formula | None = None
    lines: list[ProofLine] = []
    for record, lineno in _records(text):
        try:
            if record.startswith("PREMISE:"):
                premises.append(parse_formula(record[len("PREMISE:"):], signature))
                continue
            if record.startswith("SHOW:"):
                show = parse_formula(record[len("SHOW:"):], signature)
                continue
            num_text, _, rest = record.partition(".")
            number = int(num_text)
            formula_text, rule_name, annot_texts, cite_list = _split_justification(rest)
            try:
                rule = rule_from_name(rule_name)
            except ValueError:
                raise ScriptError(
                    f"line {number}: unknown rule {rule_name!r}", lineno
                ) from None
            annots = tuple(_parse_annot(a, signature) for a in annot_texts)
            formula = parse_formula(formula_text, signature)
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
