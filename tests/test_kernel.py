import dataclasses
import functools
import gc
import hashlib
import random
import re
import time
import weakref
from pathlib import Path

import pytest

from dirgeo.corpus import corpus_ids, load, script_text
from dirgeo.geometry import axiom
from dirgeo.kernel import (
    Justification,
    Proof,
    ProofLine,
    Rule,
    ScriptError,
    Verdict,
    check_proof,
    parse_proof_script,
    print_proof_script,
    rule_from_name,
)
from dirgeo.models import find_countermodel
from dirgeo.search import SearchConfig, prove, prove_with_lemmas
from dirgeo.syntax import GEOMETRY, App, Signature, Var, canonical_key, parse_formula, print_formula, rule_eq
from helpers import check_line, closed_up

F = parse_formula


def _line(n, src, rule, *cited, annot=()):
    return ProofLine(n, F(src), Justification(rule, tuple(cited), tuple(annot)))


def _proof(premises, lines):
    return Proof([F(p) for p in premises], lines)


def _assume(n, src):
    return _line(n, src, Rule.ASSUMED_PREMISE)


class TestRuleNames:
    def test_aliases(self):
        assert rule_from_name("DE.MORGAN") is Rule.DE_MORGAN
        assert rule_from_name("DE-MORGAN") is Rule.DE_MORGAN
        assert rule_from_name("DISTRIBUTIVE-LAW") is Rule.DISTRIBUTIVE_LAW
        assert rule_from_name("assumed-premise") is Rule.ASSUMED_PREMISE
        assert rule_from_name("De-Morgan") is Rule.DE_MORGAN
        with pytest.raises(ValueError):
            rule_from_name("XYZZY")

    def test_every_name_in_either_case(self):
        for rule in Rule:
            for name in (rule.value, *rule.aliases):
                assert rule_from_name(name) is rule and rule_from_name(name.lower()) is rule

    def test_grammar_lists_every_name(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "grammar.md").read_text()
        paragraph = text[text.index("\nRules: "):].split("\n\n")[0]
        listed = re.findall(r"`([^`]+)`", paragraph.split(". ")[0])
        assert listed == [name for rule in Rule for name in (rule.value, *rule.aliases)]


class TestCheckLine:
    def test_mp_ok(self):
        prefix = _proof([], [
            _assume(1, "UNDIR v1 v2"),
            _assume(2, "UNDIR v1 v2 -> (Az)[UNDIR v1 z | UNDIR v2 z]"),
        ])
        v = check_line(prefix, _line(3, "(Az)[UNDIR v1 z | UNDIR v2 z]", Rule.MP, 2, 1))
        assert v.ok

    def test_mp_antecedent_mismatch(self):
        prefix = _proof([], [
            _assume(1, "UNDIR v2 v3"),
            _assume(2, "UNDIR v1 v2 -> (Az)[UNDIR v1 z | UNDIR v2 z]"),
        ])
        v = check_line(prefix, _line(3, "(Az)[UNDIR v1 z | UNDIR v2 z]", Rule.MP, 2, 1))
        assert not v.ok and "MP" in v.message

    def test_mt_with_builtin_double_negation(self):
        prefix = _proof([], [
            _assume(1, "UNDIR v1 [rev v2]"),
            _assume(2, "~UNDIR v4 [rev v1] & ~UNDIR v4 v2 -> ~UNDIR v1 [rev v2]"),
        ])
        v = check_line(prefix, _line(3, "~[~UNDIR v4 [rev v1] & ~UNDIR v4 v2]", Rule.MT, 1, 2))
        assert v.ok

    def test_imp_duplicates_and_reassociation(self):
        prefix = _proof([], [
            _assume(1, "~UNDIR v2 [rev v3] & ~UNDIR v2 [rev v3] -> ~UNDIR v3 [rev [rev v3]]"),
        ])
        candidate = _line(
            2, "UNDIR v2 [rev v3] | [UNDIR v2 [rev v3] | ~UNDIR v3 [rev [rev v3]]]", Rule.IMP, 1
        )
        assert check_line(prefix, candidate).ok
        flat_left = _line(
            2, "[UNDIR v2 [rev v3] | UNDIR v2 [rev v3]] | ~UNDIR v3 [rev [rev v3]]", Rule.IMP, 1
        )
        assert check_line(prefix, flat_left).ok
        dropped = _line(2, "UNDIR v2 [rev v3] | ~UNDIR v3 [rev [rev v3]]", Rule.IMP, 1)
        assert not check_line(prefix, dropped).ok

    def test_lds_keeps_whole_right_subtree(self):
        prefix = _proof([], [
            _assume(1, "UNDIR v2 [rev v3] | [UNDIR v2 [rev v3] | ~UNDIR v3 [rev [rev v3]]]"),
            _assume(2, "~UNDIR v2 [rev v3]"),
        ])
        v = check_line(prefix, _line(3, "UNDIR v2 [rev v3] | ~UNDIR v3 [rev [rev v3]]", Rule.LDS, 1, 2))
        assert v.ok

    def test_lds_quantified_complement(self):
        prefix = _proof([], [
            _assume(1, "~(Ex)UNDIR x x"),
            _assume(2, "(Ev11)UNDIR v11 v11 | UNDIR v3 [rev v2]"),
        ])
        assert check_line(prefix, _line(3, "UNDIR v3 [rev v2]", Rule.LDS, 1, 2)).ok

    @pytest.mark.parametrize("rule", [Rule.LDS, Rule.MT])
    def test_universal_contradicts_existential(self, rule):
        # (Ax)~P is ~(Ex)P under the negated-quantifier view
        cancelled = "(Ex)UNDIR x x"
        cited = f"{cancelled} | UNDIR v1 v2" if rule is Rule.LDS else f"UNDIR v1 v2 -> {cancelled}"
        conclusion = "UNDIR v1 v2" if rule is Rule.LDS else "~UNDIR v1 v2"
        prefix = _proof([], [_assume(1, "(Ax)~UNDIR x x"), _assume(2, cited)])
        assert check_line(prefix, _line(3, conclusion, rule, 2, 1)).ok

    def test_rds(self):
        prefix = _proof([], [
            _assume(1, "~UNDIR v2 v2"),
            _assume(2, "UNDIR v2 [rev v1] | UNDIR v2 v2"),
        ])
        assert check_line(prefix, _line(3, "UNDIR v2 [rev v1]", Rule.RDS, 1, 2)).ok

    def test_simp_nested_positions(self):
        prefix = _proof([], [_assume(1, "[UNDIR x x & UNDIR y y] & UNDIR z z")])
        for part in ("UNDIR x x", "UNDIR y y", "UNDIR z z", "UNDIR x x & UNDIR y y"):
            assert check_line(prefix, _line(2, part, Rule.SIMP, 1)).ok
        assert not check_line(prefix, _line(2, "UNDIR x y", Rule.SIMP, 1)).ok

    def test_simp_quantifier_view(self):
        prefix = _proof([], [_assume(1, "(Ax)~UNDIR x x & UNDIR v1 v2")])
        assert check_line(prefix, _line(2, "~(Ex)UNDIR x x", Rule.SIMP, 1)).ok

    def test_de_morgan(self):
        prefix = _proof([], [_assume(1, "~[~UNDIR v4 [rev v1] & ~UNDIR v4 v2]")])
        v = check_line(prefix, _line(2, "UNDIR v4 [rev v1] | UNDIR v4 v2", Rule.DE_MORGAN, 1))
        assert v.ok

    def test_distributive_law_both_orientations(self):
        prefix = _proof([], [
            _assume(1, "UNDIR v1 v3 & UNDIR v1 [rev v3] | UNDIR v2 v3 & UNDIR v2 [rev v3]"),
        ])
        keep_left = _line(
            2,
            "[UNDIR v1 v3 & UNDIR v1 [rev v3] | UNDIR v2 v3] & [UNDIR v1 v3 & UNDIR v1 [rev v3] | UNDIR v2 [rev v3]]",
            Rule.DISTRIBUTIVE_LAW, 1,
        )
        keep_right = _line(
            2,
            "[UNDIR v1 v3 | UNDIR v2 v3 & UNDIR v2 [rev v3]] & [UNDIR v1 [rev v3] | UNDIR v2 v3 & UNDIR v2 [rev v3]]",
            Rule.DISTRIBUTIVE_LAW, 1,
        )
        assert check_line(prefix, keep_left).ok
        assert check_line(prefix, keep_right).ok

    def test_us_annotation_mismatch(self):
        prefix = _proof([], [_assume(1, "(Ax)~UNDIR x x")])
        wrong_var = _line(2, "~UNDIR v3 v3", Rule.US, 1, annot=((F("UNDIR v3 v3").args[0], "y"),))
        assert not check_line(prefix, wrong_var).ok

    def test_us_through_negated_existential(self):
        prefix = _proof([], [_assume(1, "~(Ex)UNDIR x x")])
        from dirgeo.syntax import Var

        v = check_line(prefix, _line(2, "~UNDIR v3 v3", Rule.US, 1, annot=((Var("v3"), "x"),)))
        assert v.ok

    def test_us_inference_without_annotation(self):
        prefix = _proof([], [_assume(1, "(Az)[UNDIR v1 z | UNDIR v2 z]")])
        assert check_line(prefix, _line(2, "UNDIR v1 v3 | UNDIR v2 v3", Rule.US, 1)).ok

    def test_eg_abstracts_one_disjunct(self):
        prefix = _proof([], [_assume(1, "UNDIR [rev v2] [rev v2] | UNDIR v3 [rev v2]")])
        good = _line(2, "(Ev11)UNDIR v11 v11 | UNDIR v3 [rev v2]", Rule.EG, 1)
        assert check_line(prefix, good).ok
        bad = _line(2, "(Ev11)UNDIR v11 v11 | (Ev12)UNDIR v3 v12", Rule.EG, 1)
        assert not check_line(prefix, bad).ok

    def test_eg_at_root(self):
        prefix = _proof([], [_assume(1, "UNDIR [rev v2] [rev v2]")])
        assert check_line(prefix, _line(2, "(Ew)UNDIR w w", Rule.EG, 1)).ok
        assert check_line(prefix, _line(2, "(Ew)UNDIR w [rev v2]", Rule.EG, 1)).ok

    def test_eg_checks_its_instance(self):
        # matching binds x to the bound y, and (Ay)UNDIR y y is no instance
        prefix = _proof([], [_assume(1, "(Ay)UNDIR y y")])
        v = check_line(prefix, _line(2, "(Ex)(Ay)UNDIR x y", Rule.EG, 1))
        assert not v.ok and v.message.startswith("EG: ")

    def test_same(self):
        prefix = _proof([], [_assume(1, "UNDIR v2 v3")])
        assert check_line(prefix, _line(2, "UNDIR v2 v3", Rule.SAME, 1)).ok
        assert not check_line(prefix, _line(2, "UNDIR v3 v2", Rule.SAME, 1)).ok


_B, _K = "UNDIR v1 v2", "UNDIR v3 [rev v4]"
# Each two-line rule: its major line around the part {p}, its conclusion and its rejection text.
_TWO_LINE = {
    Rule.MP: ("{p} -> " + _K, _K, "MP: antecedent mismatch"),
    Rule.MT: (_K + " -> {p}", "~" + _K, "MT: no cited implication whose consequent is contradicted"),
    Rule.LDS: ("{p} | " + _K, _K, "LDS: no cited disjunction whose left disjunct is contradicted"),
    Rule.RDS: (_K + " | {p}", _K, "RDS: no cited disjunction whose right disjunct is contradicted"),
}
# (part, minor): each way a minor contradicts the part, B against ~B and ~~~B against B
_CONTRADICTIONS = [(_B, "~" + _B), ("~" + _B, _B), (_B, "~~~" + _B), ("~~~" + _B, _B)]


def _two_line_cases():
    for rule, (major, conclusion, rejection) in _TWO_LINE.items():
        for part, minor in [(_B, _B)] if rule is Rule.MP else _CONTRADICTIONS:
            yield pytest.param(rule, major.format(p=part), minor, conclusion, rejection,
                               id=f"{rule.value}-{minor}-vs-{part}")


@pytest.mark.parametrize("rule, major, minor, conclusion, rejection", list(_two_line_cases()))
class TestTwoLineRules:
    @staticmethod
    def _check(rule, major, minor, conclusion, cites):
        prefix = _proof([], [_assume(1, major), _assume(2, minor)])
        return check_line(prefix, _line(3, conclusion, rule, *cites))

    def test_accepted_in_both_cite_orders(self, rule, major, minor, conclusion, rejection):
        for cites in ((1, 2), (2, 1)):
            assert self._check(rule, major, minor, conclusion, cites) == Verdict(True)

    def test_rejection_text_when_no_minor_fits(self, rule, major, minor, conclusion, rejection):
        for cites in ((1, 2), (2, 1)):
            v = self._check(rule, major, "UNDIR v5 v6", conclusion, cites)
            assert v == Verdict(False, "rule", rejection)

    def test_wrong_conclusion_names_the_expected_one(self, rule, major, minor, conclusion, rejection):
        expected = f"{rule.value}: expected {print_formula(F(conclusion))}, found UNDIR v5 v6"
        for cites in ((1, 2), (2, 1)):
            v = self._check(rule, major, minor, "UNDIR v5 v6", cites)
            assert v == Verdict(False, "rule", expected)


def test_mp_minor_that_contradicts_the_antecedent_does_not_fit():
    major, conclusion, rejection = _TWO_LINE[Rule.MP]
    v = TestTwoLineRules._check(Rule.MP, major.format(p=_B), "~" + _B, conclusion, (1, 2))
    assert v == Verdict(False, "rule", rejection)


# Each rewrite rule on a cited line: every line it accepts (the first is the
# one its mismatch message expects), its text for a cited line of another
# connective, and what it says of UNDIR v7 v7 in place of a result.
_REWRITES = [
    (Rule.IMP, "UNDIR v1 v2 & UNDIR v3 v4 -> UNDIR v5 v5",
     ["~UNDIR v1 v2 | [~UNDIR v3 v4 | UNDIR v5 v5]", "[~UNDIR v1 v2 | ~UNDIR v3 v4] | UNDIR v5 v5"],
     "IMP: cited line is not an implication",
     "IMP: expected ~UNDIR v1 v2 | [~UNDIR v3 v4 | UNDIR v5 v5], found UNDIR v7 v7"),
    (Rule.SIMP, "[UNDIR v1 v2 & UNDIR v3 v4] & UNDIR v5 v5",
     ["UNDIR v1 v2 & UNDIR v3 v4", "UNDIR v5 v5", "UNDIR v1 v2", "UNDIR v3 v4", "UNDIR v3 v4 & UNDIR v1 v2"],
     "SIMP: cited line is not a conjunction",
     "SIMP: UNDIR v7 v7 is not a conjunct of the cited line"),
    (Rule.DE_MORGAN, "~[UNDIR v1 v2 & ~UNDIR v3 v4]",
     ["~UNDIR v1 v2 | UNDIR v3 v4"],
     "DE.MORGAN: cited line is not a negated & or |",
     "DE.MORGAN: expected ~UNDIR v1 v2 | UNDIR v3 v4, found UNDIR v7 v7"),
    (Rule.DE_MORGAN, "~[~UNDIR v1 v2 | UNDIR v3 v4]",
     ["UNDIR v1 v2 & ~UNDIR v3 v4"],
     "DE.MORGAN: cited line is not a negated & or |",
     "DE.MORGAN: expected UNDIR v1 v2 & ~UNDIR v3 v4, found UNDIR v7 v7"),
    (Rule.DISTRIBUTIVE_LAW, "UNDIR v1 v2 & UNDIR v3 v4 | UNDIR v5 v5 & UNDIR v6 v6",
     ["[UNDIR v1 v2 | UNDIR v5 v5 & UNDIR v6 v6] & [UNDIR v3 v4 | UNDIR v5 v5 & UNDIR v6 v6]",
      "[UNDIR v1 v2 & UNDIR v3 v4 | UNDIR v5 v5] & [UNDIR v1 v2 & UNDIR v3 v4 | UNDIR v6 v6]"],
     "DISTRIBUTIVE-LAW: cited line is not a disjunction",
     "DISTRIBUTIVE-LAW: expected [UNDIR v1 v2 | UNDIR v5 v5 & UNDIR v6 v6]"
     " & [UNDIR v3 v4 | UNDIR v5 v5 & UNDIR v6 v6], found UNDIR v7 v7"),
]


@pytest.mark.parametrize("rule, cited, results, wrong, mismatch", _REWRITES,
                         ids=["IMP", "SIMP", "DE.MORGAN-and", "DE.MORGAN-or", "DISTRIBUTIVE-LAW"])
class TestRewriteRules:
    @staticmethod
    def _check(rule, cited, conclusion):
        return check_line(_proof([], [_assume(1, cited)]), _line(2, conclusion, rule, 1))

    def test_accepts_each_result(self, rule, cited, results, wrong, mismatch):
        for result in results:
            assert self._check(rule, cited, result) == Verdict(True)

    def test_cited_line_of_another_connective(self, rule, cited, results, wrong, mismatch):
        for other in ("UNDIR v1 v2", "~[UNDIR v1 v2 -> UNDIR v3 v4]" if rule is Rule.DE_MORGAN
                      else "~[UNDIR v1 v2 & UNDIR v3 v4]"):
            assert self._check(rule, other, results[0]) == Verdict(False, "rule", wrong)

    def test_mismatch(self, rule, cited, results, wrong, mismatch):
        assert self._check(rule, cited, "UNDIR v7 v7") == Verdict(False, "rule", mismatch)


@pytest.mark.parametrize("rule, cited, message", [
    (Rule.DISTRIBUTIVE_LAW, "UNDIR v1 v2 | ~[UNDIR v3 v4 & UNDIR v5 v5]",
     "DISTRIBUTIVE-LAW: no conjunction to distribute over"),
    (Rule.DE_MORGAN, "~UNDIR v1 v2", "DE.MORGAN: cited line is not a negated & or |"),
    (Rule.DE_MORGAN, "~~[UNDIR v1 v2 & UNDIR v3 v4]", "DE.MORGAN: cited line is not a negated & or |"),
], ids=["disjunction-without-a-conjunct", "negated-atom", "double-negation"])
def test_rewrite_with_no_result(rule, cited, message):
    v = TestRewriteRules._check(rule, cited, "UNDIR v1 v2")
    assert v == Verdict(False, "rule", message)


class TestAssumptionDischarge:
    def test_vacuous_cp(self):
        # an antecedent that was never assumed: plain weakening
        lines = [
            _assume(1, "UNDIR v1 v2"),
            _line(2, "UNDIR v1 [rev v2] -> UNDIR v1 v2", Rule.CP, 1),
            _line(3, "UNDIR v1 v2 -> [UNDIR v1 [rev v2] -> UNDIR v1 v2]", Rule.CP, 2),
        ]
        assert check_proof(_proof([], lines)).valid

    def test_unmatched_consequent_rejected(self):
        lines = [
            _assume(1, "UNDIR v1 v2"),
            _line(2, "UNDIR v1 v2 -> UNDIR v2 v1", Rule.CP, 1),
        ]
        rep = check_proof(_proof([], lines))
        assert not rep.valid and rep.line == 2

    def test_undischarged_assumption_detected(self):
        lines = [
            _assume(1, "UNDIR v1 v2"),
            _line(2, "UNDIR v1 v2", Rule.SAME, 1),
        ]
        rep = check_proof(_proof([], lines))
        assert not rep.valid and "assumption" in rep.message

    def test_premise_must_be_declared(self):
        lines = [_line(1, "UNDIR v1 v2", Rule.PREMISE)]
        rep = check_proof(_proof([], lines))
        assert not rep.valid
        rep2 = check_proof(_proof(["UNDIR v1 v2"], lines))
        assert rep2.valid


class TestSharedDependencySets:
    """A line that cites one line and discharges nothing shares that line's
    dependency set; CP builds a new set when it discharges, so the set of
    the line it cites stays as it was."""

    SHARING = {rule for rule in Rule if rule.cites == 1} - {Rule.CP, Rule.CASE1, Rule.CASE2}

    def test_same_then_cp(self):
        from dirgeo.kernel import Checker

        checker = Checker([])
        for line in (_assume(1, "UNDIR v1 v2"), _line(2, "UNDIR v1 v2", Rule.SAME, 1),
                     _line(3, "UNDIR v1 v2 -> UNDIR v1 v2", Rule.CP, 2)):
            assert checker.add_line(line).ok
        assert checker.deps[2] is checker.deps[1]
        assert (checker.deps[1], checker.deps[2], checker.deps[3]) == ({1}, {1}, set())

    def test_corpus_and_emitted_proofs(self):
        from dirgeo.kernel import Checker

        shared = discharges = 0
        for _, proof in [*_corpus_proofs(), *_emitted_proofs()]:
            checker = Checker(proof.premises)
            copies = {}  # line -> a copy of its set as it was added
            for line in proof.lines:
                cited = [checker.deps[j] for j in line.just.cited]
                closed = len(checker.closed_regions)
                assert checker.add_line(line).ok
                deps = checker.deps[line.number]
                if line.just.rule in self.SHARING:
                    assert deps is cited[0]
                    shared += 1
                if line.just.rule is Rule.CP and len(checker.closed_regions) > closed:
                    assumption = checker.closed_regions[-1][0]
                    assert deps == cited[0] - {assumption}
                    discharges += assumption in cited[0]
                copies[line.number] = set(deps)
                assert all(checker.deps[n] == copy for n, copy in copies.items())
        assert shared > 100 and discharges > 10


class TestScope:
    def test_cite_into_closed_subproof_is_scope_violation(self):
        lines = [
            _assume(1, "UNDIR v1 v2"),
            _assume(2, "~UNDIR v1 v3"),
            _line(3, "UNDIR v1 v2", Rule.SAME, 1),
            _line(4, "~UNDIR v1 v3 -> UNDIR v1 v2", Rule.CP, 3),
            _line(5, "UNDIR v1 v2", Rule.SAME, 3),  # line 3 is closed now
        ]
        rep = check_proof(_proof([], lines))
        assert not rep.valid and rep.line == 5 and rep.kind == "scope"

    @pytest.mark.parametrize("cite", [2, 3])
    def test_cite_of_itself_or_a_later_line_is_nonexistent(self, cite):
        lines = [_line(1, "UNDIR x y", Rule.PREMISE), _line(2, "UNDIR x y", Rule.SAME, cite)]
        rep = check_proof(_proof(["UNDIR x y"], lines))
        assert (rep.line, rep.kind, rep.message) == (2, "structure", f"line 2 cites nonexistent line {cite}")

    def test_corpus_redirections_into_closed_regions(self):
        # citing any line of a subproof already discharged at that point
        # must be flagged as a scope violation, across all corpus proofs
        rng = random.Random(99)
        checked = 0
        for cid in corpus_ids():
            proof, _ = load(cid)
            regions = _regions_with_closing_line(proof)
            for i, line in enumerate(proof.lines):
                if not line.just.cited:
                    continue
                targets = sorted(
                    j
                    for close_line, lo, hi in regions
                    if close_line < line.number
                    for j in range(lo, hi + 1)
                )
                if not targets:
                    continue
                target = rng.choice(targets)
                cited = list(line.just.cited)
                cited[rng.randrange(len(cited))] = target
                mutated = list(proof.lines)
                mutated[i] = dataclasses.replace(
                    line, just=dataclasses.replace(line.just, cited=tuple(cited))
                )
                rep = check_proof(Proof(proof.premises, mutated, proof.show))
                assert not rep.valid
                assert rep.line == line.number and rep.kind == "scope"
                checked += 1
        assert checked > 30

    def test_scope_reported_distinct_from_rule(self):
        lines = [
            _assume(1, "~UNDIR v1 v3"),
            _line(2, "~UNDIR v1 v3", Rule.SAME, 1),
            _line(3, "~UNDIR v1 v3 -> ~UNDIR v1 v3", Rule.CP, 2),
            _line(4, "~UNDIR v1 v3", Rule.SAME, 2),
        ]
        rep = check_proof(_proof([], lines))
        assert rep.kind == "scope" and "closed" in rep.message


def _regions_with_closing_line(proof) -> list[tuple[int, int, int]]:
    """(closing line, lo, hi) for each discharged subproof region."""
    from dirgeo.kernel import Checker

    checker = Checker(proof.premises)
    out: list[tuple[int, int, int]] = []
    for line in proof.lines:
        before = len(checker.closed_regions)
        assert checker.add_line(line).ok
        for lo, hi in checker.closed_regions[before:]:
            out.append((line.number, lo, hi))
    return out


class TestEigenvariableConditions:
    def test_ug_rejected_when_variable_free_in_open_assumption(self):
        lines = [
            _assume(1, "UNDIR v1 v2"),
            _line(2, "(Ax)UNDIR x v2", Rule.UG, 1),
        ]
        rep = check_proof(_proof([], lines))
        assert not rep.valid and "UG" in rep.message

    def test_ug_rejected_when_variable_free_in_premise(self):
        lines = [
            _line(1, "UNDIR v1 v2", Rule.PREMISE),
            _line(2, "(Ax)UNDIR x v2", Rule.UG, 1),
        ]
        rep = check_proof(_proof(["UNDIR v1 v2"], lines))
        assert not rep.valid

    def test_ug_partial_occurrence_abstraction_rejected(self):
        lines = [
            _line(1, "UNDIR v1 v1", Rule.PREMISE),
            _line(2, "(Ax)UNDIR x v1", Rule.UG, 1),
        ]
        rep = check_proof(_proof(["UNDIR v1 v1"], lines))
        assert not rep.valid

    def test_ug_binds_several_at_once(self):
        from dirgeo.syntax import Var

        closed = "(Ax)(Ay)[UNDIR x y | UNDIR y x]"
        lines = [
            _line(1, closed, Rule.PREMISE),
            _line(2, "(Ay)[UNDIR v1 y | UNDIR y v1]", Rule.US, 1, annot=((Var("v1"), "x"),)),
            _line(3, "UNDIR v1 v2 | UNDIR v2 v1", Rule.US, 2, annot=((Var("v2"), "y"),)),
            _line(4, closed, Rule.UG, 3),
        ]
        assert check_proof(_proof([closed], lines)).valid

    def test_ug_with_explicit_annotation(self):
        from dirgeo.syntax import Var

        lines = [
            _line(1, "(Ax)~UNDIR x x", Rule.PREMISE),
            _line(2, "~UNDIR v1 v1", Rule.US, 1, annot=((Var("v1"), "x"),)),
            _line(3, "(Ay)~UNDIR y y", Rule.UG, 2, annot=((Var("v1"), "y"),)),
        ]
        assert check_proof(_proof(["(Ax)~UNDIR x x"], lines)).valid
        wrong = lines[:2] + [_line(3, "(Ay)~UNDIR y y", Rule.UG, 2, annot=((Var("v2"), "y"),))]
        assert not check_proof(_proof(["(Ax)~UNDIR x x"], wrong)).valid

    def test_sub_rejected_when_variable_free_in_open_assumption(self):
        lines = [
            _assume(1, "UNDIR v1 v2"),
            _line(2, "UNDIR v1 v2", Rule.SAME, 1),
            _line(3, "UNDIR v3 v2", Rule.SUB, 2),
        ]
        rep = check_proof(_proof([], lines))
        assert not rep.valid and "SUB" in rep.message

    def test_sub_inferred_multi_binding(self):
        from dirgeo.syntax import Var

        odo = "(Ax)(Ay)(Az)[~UNDIR x [rev y] & ~UNDIR x z -> ~UNDIR y [rev z]]"
        lines = [
            _line(1, odo, Rule.PREMISE),
            _line(2, "(Ay)(Az)[~UNDIR v4 [rev y] & ~UNDIR v4 z -> ~UNDIR y [rev z]]",
                  Rule.US, 1, annot=((Var("v4"), "x"),)),
            _line(3, "(Az)[~UNDIR v4 [rev v5] & ~UNDIR v4 z -> ~UNDIR v5 [rev z]]",
                  Rule.US, 2, annot=((Var("v5"), "y"),)),
            _line(4, "~UNDIR v4 [rev v5] & ~UNDIR v4 v6 -> ~UNDIR v5 [rev v6]",
                  Rule.US, 3, annot=((Var("v6"), "z"),)),
            _line(5, "~UNDIR v4 [rev v1] & ~UNDIR v4 v2 -> ~UNDIR v1 [rev v2]", Rule.SUB, 4),
        ]
        assert check_proof(_proof([odo], lines)).valid


class TestExistentialElimination:
    def test_witness_rule(self):
        lines = [
            _line(1, "(Ex)UNDIR x x", Rule.PREMISE),
            _line(2, "UNDIR w w", Rule.EE, 1),
            _line(3, "(Ey)UNDIR y y", Rule.EG, 2),
        ]
        assert check_proof(_proof(["(Ex)UNDIR x x"], lines)).valid

    def test_one_annotation(self):
        lines = [
            _line(1, "(Ex)UNDIR x x", Rule.PREMISE),
            _line(2, "UNDIR w w", Rule.EE, 1, annot=((Var("w"), "x"), (Var("q"), "y"))),
        ]
        rep = check_proof(_proof(["(Ex)UNDIR x x"], lines))
        assert (rep.valid, rep.line) == (False, 2)
        assert rep.message == "EE: exactly one (term var) annotation expected"

    def test_witness_must_be_fresh(self):
        lines = [
            _line(1, "(Ex)UNDIR x v1", Rule.PREMISE),
            _line(2, "UNDIR v1 v1", Rule.EE, 1),
        ]
        rep = check_proof(_proof(["(Ex)UNDIR x v1"], lines))
        assert not rep.valid and "fresh" in rep.message

    def test_witness_cannot_leak_into_conclusion(self):
        lines = [
            _line(1, "(Ex)UNDIR x x", Rule.PREMISE),
            _line(2, "UNDIR w w", Rule.EE, 1),
        ]
        rep = check_proof(_proof(["(Ex)UNDIR x x"], lines))
        assert not rep.valid and "witness" in rep.message

    def test_witness_cannot_be_generalized(self):
        lines = [
            _line(1, "(Ex)UNDIR x x", Rule.PREMISE),
            _line(2, "UNDIR w w", Rule.EE, 1),
            _line(3, "(Ay)UNDIR y y", Rule.UG, 2),
        ]
        rep = check_proof(_proof(["(Ex)UNDIR x x"], lines))
        assert not rep.valid and "witness" in rep.message


class TestCases:
    def test_labels_must_cover_both_disjuncts(self):
        base = [
            _line(1, "UNDIR v1 v2 | UNDIR v2 v1", Rule.PREMISE),
            _line(2, "UNDIR v1 v2", Rule.CASE1, 1),
        ]
        dup = base + [_line(3, "UNDIR v1 v2", Rule.CASE2, 1)]
        rep = check_proof(_proof(["UNDIR v1 v2 | UNDIR v2 v1"], dup))
        assert not rep.valid and "disjunct" in rep.message

    def test_labels_order_free(self):
        # CASE2 may take the left disjunct and CASE1 the right
        lines = [
            _line(1, "UNDIR v1 v2 | UNDIR v1 v2", Rule.PREMISE),
            _line(2, "UNDIR v1 v2", Rule.CASE2, 1),
            _line(3, "UNDIR v1 v2", Rule.CASE1, 1),
            _line(4, "UNDIR v1 v2", Rule.SAME, 2),
            _line(5, "UNDIR v1 v2", Rule.SAME, 3),
            _line(6, "UNDIR v1 v2", Rule.CASES, 1, 4, 5),
        ]
        assert check_proof(_proof(["UNDIR v1 v2 | UNDIR v1 v2"], lines)).valid

    def test_branch_conclusions_must_match(self):
        lines = [
            _line(1, "UNDIR v1 v2 | UNDIR v2 v1", Rule.PREMISE),
            _line(2, "UNDIR v1 v2", Rule.CASE1, 1),
            _line(3, "UNDIR v2 v1", Rule.CASE2, 1),
            _line(4, "UNDIR v1 v2", Rule.CASES, 1, 2, 3),
        ]
        rep = check_proof(_proof(["UNDIR v1 v2 | UNDIR v2 v1"], lines))
        assert not rep.valid

    def test_sequential_resplit_of_same_line(self):
        # once a case pair is closed, the same disjunction may be split again
        lines = [
            _line(1, "UNDIR v1 v2 | UNDIR v1 v2", Rule.PREMISE),
            _line(2, "UNDIR v1 v2", Rule.CASE1, 1),
            _line(3, "UNDIR v1 v2", Rule.CASE2, 1),
            _line(4, "UNDIR v1 v2", Rule.CASES, 1, 2, 3),
            _line(5, "UNDIR v1 v2", Rule.CASE1, 1),
            _line(6, "UNDIR v1 v2", Rule.CASE2, 1),
            _line(7, "UNDIR v1 v2", Rule.CASES, 1, 5, 6),
        ]
        assert check_proof(_proof(["UNDIR v1 v2 | UNDIR v1 v2"], lines)).valid

    def test_cross_branch_leak_rejected(self):
        # both staging lines rest on the same case assumption
        lines = [
            _line(1, "UNDIR v1 v2 | UNDIR v2 v1", Rule.PREMISE),
            _line(2, "UNDIR v1 v2", Rule.CASE1, 1),
            _line(3, "UNDIR v2 v1", Rule.CASE2, 1),
            _line(4, "UNDIR v1 v2", Rule.SAME, 2),
            _line(5, "UNDIR v1 v2", Rule.SAME, 2),
            _line(6, "UNDIR v1 v2", Rule.CASES, 1, 4, 5),
        ]
        rep = check_proof(_proof(["UNDIR v1 v2 | UNDIR v2 v1"], lines))
        assert not rep.valid and "CASES" in rep.message


# Scripts for rule branches no other test reaches: (script, (line, kind,
# message)) of the first failure, or None if the script is valid.
_VERDICTS = {
    "cases-already-closed": (
        "PREMISE: UNDIR x y | UNDIR y x\nPREMISE: UNDIR z z\n"
        "1. UNDIR x y | UNDIR y x  PREMISE\n2. UNDIR z z  PREMISE\n"
        "3. UNDIR x y  CASE1 1\n4. UNDIR y x  CASE2 1\n"
        "5. UNDIR z z  CASES 1 2 2\n6. UNDIR z z  CASES 1 2 2\n",
        (6, "scope", "CASES: already closed"),
    ),
    "cases-both-assumptions": (
        "PREMISE: UNDIR x y | UNDIR y x\nPREMISE: UNDIR x y -> [UNDIR y x -> UNDIR z z]\n"
        "1. UNDIR x y | UNDIR y x  PREMISE\n2. UNDIR x y -> [UNDIR y x -> UNDIR z z]  PREMISE\n"
        "3. UNDIR x y  CASE1 1\n4. UNDIR y x  CASE2 1\n"
        "5. UNDIR y x -> UNDIR z z  MP 2 3\n6. UNDIR z z  MP 5 4\n7. UNDIR z z  CASES 1 6 6\n",
        (7, "rule", "CASES: a branch conclusion depends on both case assumptions"),
    ),
    "case-unclosed": (
        "PREMISE: UNDIR x y | UNDIR y x\n1. UNDIR x y | UNDIR y x  PREMISE\n"
        "2. UNDIR x y  CASE1 1\n3. UNDIR x y | UNDIR y x  SAME 1\n",
        (3, "structure", "unclosed case branch(es) at line(s) [2]"),
    ),
    "ug-annotation-not-a-prefix": (
        "PREMISE: (Ax)(Ay)UNDIR x y\n1. (Ax)(Ay)UNDIR x y  PREMISE\n"
        "2. (Ay)UNDIR v y  US (v x) 1\n3. UNDIR v w  US (w y) 2\n"
        "4. (Ax)(Ay)UNDIR x y  UG (w y) 3\n",
        (4, "rule", "UG: annotated variables must form the quantifier prefix"),
    ),
    "ug-vacuous": (
        "PREMISE: (Ax)UNDIR x x\n1. (Ax)UNDIR x x  PREMISE\n2. UNDIR v v  US 1\n"
        "3. (Ax)(Ay)UNDIR x x  UG 2\n",
        None,
    ),
    "ee-annotation-not-a-variable": (
        "PREMISE: (Ex)UNDIR x x\n1. (Ex)UNDIR x x  PREMISE\n"
        "2. UNDIR [rev w] [rev w]  EE ([rev w] x) 1\n",
        (2, "rule", "EE: annotation must name a fresh variable"),
    ),
    "ee-wrong-instance": (
        "PREMISE: (Ex)UNDIR x x\n1. (Ex)UNDIR x x  PREMISE\n2. UNDIR w x  EE (w x) 1\n",
        (2, "rule", "EE: expected UNDIR w w, found UNDIR w x"),
    ),
}


class TestRuleBranches:
    @pytest.mark.parametrize("name", _VERDICTS)
    def test_verdict(self, name):
        text, want = _VERDICTS[name]
        rep = check_proof(parse_proof_script(text))
        assert (None if rep.valid else (rep.line, rep.kind, rep.message)) == want


class TestMutationExample:
    def test_corrupted_lds_line_fails_there(self):
        proof, _ = load("A")
        mutated = list(proof.lines)
        mutated[7] = dataclasses.replace(mutated[7], formula=F("UNDIR v2 v2"))
        rep = check_proof(Proof(proof.premises, mutated, proof.show))
        assert not rep.valid and rep.line == 8 and "LDS" in rep.message


class TestScripts:
    WRAPPED = """
# a record may wrap over physical lines
PREMISE: (Ax)(Ay)(Az)[~UNDIR x [rev y] & ~UNDIR x z
   -> ~UNDIR y [rev z]]
SHOW: (Az)[~UNDIR v4 [rev v5] & ~UNDIR v4 z -> ~UNDIR v5 [rev z]]
1. (Ax)(Ay)(Az)[~UNDIR x [rev y] & ~UNDIR x z -> ~UNDIR y [rev z]]  PREMISE
2. (Ay)(Az)[~UNDIR v4 [rev y] & ~UNDIR v4 z
   -> ~UNDIR y [rev z]]
   US (v4 x) 1
3. (Az)[~UNDIR v4 [rev v5] & ~UNDIR v4 z -> ~UNDIR v5 [rev z]]  US (v5 y) 2
"""

    def test_wrapped_lines_joined(self):
        proof = parse_proof_script(self.WRAPPED)
        assert len(proof.lines) == 3
        assert check_proof(proof).valid

    def test_nested_annotation_terms(self):
        text = (
            "PREMISE: (Ay)[UNDIR v3 y | UNDIR v3 [rev y]]\n"
            "1. (Ay)[UNDIR v3 y | UNDIR v3 [rev y]]  PREMISE\n"
            "2. UNDIR v3 [rev [rev v3]] | UNDIR v3 [rev [rev [rev v3]]]  US (rev(rev(v3)) y) 1\n"
        )
        proof = parse_proof_script(text)
        assert check_proof(proof).valid

    def test_script_roundtrip(self):
        for cid in corpus_ids():
            proof, _ = load(cid)
            text = print_proof_script(proof, header="roundtrip")
            again = parse_proof_script(text)
            assert [l.formula for l in again.lines] == [l.formula for l in proof.lines]
            assert [l.just for l in again.lines] == [l.just for l in proof.lines]
            assert again.premises == proof.premises

    def test_annotation_split_on_any_whitespace(self):
        text = "PREMISE: (Ax)UNDIR x x\n1. (Ax)UNDIR x x  PREMISE\n2. UNDIR v1 v1  US (v1\tx) 1\n"
        proof = parse_proof_script(text)
        assert proof.lines[1].just.annot == ((Var("v1"), "x"),)
        assert check_proof(proof).valid

    @pytest.mark.parametrize("signature, message", [
        (Signature({"P": 2}, {"rev": 1}), "unknown predicate 'UNDIR' (at offset 1)"),
        (GEOMETRY.extended(functions={"f": 1}), "function symbol 'f' used without brackets (at offset 7)"),
    ], ids=["predicate", "function"])
    def test_reader_keeps_nothing_between_calls(self, signature, message):
        text = "PREMISE: UNDIR f f\n1. UNDIR f f  PREMISE\n"
        assert parse_proof_script(text).lines[0].formula is parse_formula("UNDIR f f")
        with pytest.raises(ScriptError) as err:
            parse_proof_script(text, signature)
        assert str(err.value) == f"{message} (script line 1)"

    def test_parsed_nodes_die_with_the_proof(self):
        proof = parse_proof_script("SHOW: UNDIR diesA diesB\n1. UNDIR diesA diesB  ASSUMED-PREMISE\n")
        refs = [weakref.ref(proof.show), weakref.ref(proof.lines[0].formula.args[0])]
        del proof
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_missing_justification(self):
        with pytest.raises(ScriptError):
            parse_proof_script("1. UNDIR v1 v2\n")

    def test_bad_formula_reports_script_line(self):
        with pytest.raises(ScriptError) as err:
            parse_proof_script("# c\n1. UNDIR v1  SAME 1\n")
        assert err.value.lineno == 2

    def test_nonconsecutive_numbers_rejected(self):
        proof = parse_proof_script("1. UNDIR v1 v2  ASSUMED-PREMISE\n3. UNDIR v1 v2  SAME 1\n")
        rep = check_proof(proof)
        assert not rep.valid and rep.kind == "structure"

    @pytest.mark.parametrize("kind", ["name-run", "cites", "annotations"])
    def test_long_record_in_linear_time(self, kind):
        # About 10^6 characters each.  A split of the tail that is quadratic
        # in the record's length takes minutes on them, a linear one well
        # under a second.  The bound is loose, for a loaded machine.
        text = {
            "name-run": "1. UNDIR x " + "a" * 10**6 + " ~\n",
            "cites": "1. UNDIR x y  SAME" + " 123456789" * 10**5 + "\n",
            "annotations": "1. (Ax)UNDIR x x  US" + (" " * 90 + "(v1 x)") * 10**4 + " 1\n",
        }[kind]
        start = time.perf_counter()
        try:
            just = parse_proof_script(text).lines[0].just
        except ScriptError as exc:
            just = str(exc)
        assert time.perf_counter() - start < 5.0
        assert just == {
            "name-run": "no justification rule found (script line 1)",
            "cites": Justification(Rule.SAME, (123456789,) * 10**5),
            "annotations": Justification(Rule.US, (1,), ((Var("v1"), "x"),) * 10**4),
        }[kind]

    @pytest.mark.parametrize("text, what", [
        ("1" * 5000 + ". UNDIR x y  PREMISE\n", "line number"),
        ("1. UNDIR x y  SAME 1 " + "2" * 5000 + " 3\n", "cite"),
    ], ids=["line-number", "cite"])
    def test_number_too_long_to_convert(self, text, what):
        with pytest.raises(ScriptError) as err:
            parse_proof_script(text)
        assert str(err.value) == f"{what} of 5000 digits is too long (script line 1)"

    @pytest.mark.parametrize("text, lineno", [
        ("UNDIR x y  PREMISE\n", 1),
        ("SHOW UNDIR x y\n", 1),
        ("1 UNDIR x y  PREMISE\n", 1),
        ("# c\n\n+1. UNDIR x y  PREMISE\n", 3),
    ], ids=["no-number", "misspelt-header", "no-dot", "signed-number"])
    def test_first_record_without_a_line_number(self, text, lineno):
        with pytest.raises(ScriptError) as err:
            parse_proof_script(text)
        assert str(err.value) == f"expected a line number, PREMISE: or SHOW: (script line {lineno})"

    def test_instance_that_would_capture_cannot_be_inferred(self):
        # x := y would be captured by (Ay): no term fits, and the line says so.
        text = "PREMISE: (Ax)(Ay)UNDIR x y\n1. (Ax)(Ay)UNDIR x y  PREMISE\n2. (Ay)UNDIR y y  US 1\n"
        rep = check_proof(parse_proof_script(text))
        assert (rep.valid, rep.line, rep.message) == (False, 2, "US: cannot infer the instantiation term")

    def test_show_mismatch_detected(self):
        text = "SHOW: UNDIR v2 v1\n1. UNDIR v1 v2  ASSUMED-PREMISE\n2. UNDIR v1 v2 -> UNDIR v1 v2  CP 1\n"
        rep = check_proof(parse_proof_script(text))
        assert not rep.valid and "SHOW" in rep.message


class TestSequentReport:
    def test_empty_proof(self):
        rep = check_proof(Proof([], []))
        assert (rep.valid, rep.line, rep.kind, rep.message) == (False, None, "structure", "empty proof")
        assert rep.conclusion is None

    def test_a_sequent(self):
        proof, entry = load("A")
        rep = check_proof(proof)
        assert rep.valid
        assert rule_eq(rep.conclusion, entry.declared_conclusion())
        assert rep.sequent().startswith("|- ")


def _corpus_proofs():
    """(label, proof) for each corpus transcript."""
    for cid in corpus_ids():
        yield cid, load(cid)[0]


# The acceptance theorems the prover derives: (label, premises, goal,
# staged via the OO lemma, (max_depth, max_term_depth)).
_ACCEPTANCE_SEARCHES = [
    ("W1", ["I6"], "W1", False, (2, 1)),
    ("W4", ["I6"], "W4", False, (2, 1)),
    ("OO", ["I5", "ODO"], "OO", False, (1, 1)),
    ("W2-staged", ["I5", "I6", "ODO"], "W2", True, (2, 2)),
    ("W3-staged", ["I5", "I6", "ODO"], "W3", True, (2, 2)),
    ("W2", ["I5", "I6", "ODO"], "W2", False, (2, 2)),
    ("I6", ["I7", "I8", "ODO"], "I6", False, (2, 3)),
]


@functools.cache
def _emitted_proofs():
    """(label, proof) for the prover's script of each acceptance theorem."""
    out = []
    for label, premises, goal, staged, (depth, term_depth) in _ACCEPTANCE_SEARCHES:
        cfg = SearchConfig(max_depth=depth, max_term_depth=term_depth)
        premises = [axiom(p) for p in premises]
        if staged:
            lemmas = [([axiom("I5"), axiom("ODO")], axiom("OO"))]
            r = prove_with_lemmas(premises, lemmas, axiom(goal), cfg)
        else:
            r = prove(premises, axiom(goal), cfg)
        assert r.proved, label
        out.append((label, r.proof))
    return tuple(out)


def _formula_mutants(proofs):
    """(label, proof): every single-line formula substitution drawn from
    the same proof's other, canonically distinct formulas."""
    for name, proof in proofs:
        keys = [canonical_key(l.formula) for l in proof.lines]
        pool = {}
        for k, l in zip(keys, proof.lines):
            pool.setdefault(k, l.formula)
        for i, line in enumerate(proof.lines):
            for j, (k, formula) in enumerate(pool.items()):
                if k != keys[i]:
                    mutated = list(proof.lines)
                    mutated[i] = dataclasses.replace(line, formula=formula)
                    yield f"{name}:{line.number}:{j}", Proof(proof.premises, mutated, proof.show)


def _renumbered(lines, shift):
    """Lines renumbered from 1, each cite c mapped to shift(c)."""
    return [
        dataclasses.replace(
            l, number=i, just=dataclasses.replace(l.just, cited=tuple(shift(c) for c in l.just.cited))
        )
        for i, l in enumerate(lines, 1)
    ]


def _justification_mutants(proofs):
    """(label, proof): every line with its rule swapped, its cites
    reversed, one cite set to 0, n+1, n or n-1, its cites dropped, an
    annotation term wrapped in rev, an annotation variable renamed, its
    annotation dropped or added; and every line deleted or duplicated,
    with the cites of the lines after it following them."""
    for name, proof in proofs:
        lines = proof.lines
        for i, line in enumerate(lines):
            n, just = line.number, line.just

            def variant(tag, **changes):
                mutated = list(lines)
                mutated[i] = dataclasses.replace(line, just=dataclasses.replace(just, **changes))
                return f"{name}:{n}:{tag}", Proof(proof.premises, mutated, proof.show)

            for rule in Rule:
                if rule is not just.rule:
                    yield variant(f"rule={rule.value}", rule=rule)
            cited = just.cited
            if len(cited) > 1:
                yield variant("cites-reversed", cited=cited[::-1])
            for k, c in enumerate(cited):
                for target in (0, n + 1, n, n - 1):
                    if target != c:
                        yield variant(f"cite{k}={target}", cited=cited[:k] + (target,) + cited[k + 1:])
            if cited:
                yield variant("cites-dropped", cited=())
            annot = just.annot
            for k, (t, v) in enumerate(annot):
                yield variant(f"annot{k}-rev", annot=annot[:k] + ((App("rev", (t,)), v),) + annot[k + 1:])
                yield variant(f"annot{k}-var", annot=annot[:k] + ((t, v + "0"),) + annot[k + 1:])
            if annot:
                yield variant("annot-dropped", annot=())
            else:
                yield variant("annot-added", annot=((Var("v1"), "x"),))
            deleted = _renumbered(lines[:i] + lines[i + 1:], lambda c: c - (c >= n))
            yield f"{name}:{n}:deleted", Proof(proof.premises, deleted, proof.show)
            doubled = _renumbered(lines[: i + 1] + lines[i:], lambda c: c + (c > n))
            yield f"{name}:{n}:duplicated", Proof(proof.premises, doubled, proof.show)


def _verdicts(mutants):
    """The first 16 hex digits of a sha256 over every mutant's label and
    verdict, and the reports."""
    digest, reports = hashlib.sha256(), []
    for label, proof in mutants:
        rep = check_proof(proof)
        digest.update(repr((label, rep.valid, rep.line, rep.kind, rep.message)).encode() + b"\n")
        reports.append(rep)
    return digest.hexdigest()[:16], reports


def _accepted_without_countermodel(reports):
    """The accepted reports; each certifies only what holds up to size 3."""
    accepted = [r for r in reports if r.valid]
    for r in accepted:
        assert find_countermodel(r.premises, closed_up(r.conclusion), 3) is None, r.sequent()
    return accepted


class TestVerdictFingerprint:
    """Every verdict of the kernel on two mutation sweeps of the corpus:
    a refactoring of the checker must change no verdict and no message."""

    def test_formula_mutants(self):
        digest, reports = _verdicts(_formula_mutants(_corpus_proofs()))
        assert len(reports) == 5723 and not any(r.valid for r in reports)
        assert digest == "1fcc1d0f26cba61a"

    def test_justification_mutants(self):
        digest, reports = _verdicts(_justification_mutants(_corpus_proofs()))
        accepted = _accepted_without_countermodel(reports)
        assert (len(reports), len(accepted)) == (4779, 347)
        assert digest == "b5bec419f17adf0c"


class TestEmittedScriptFingerprint:
    """The same two sweeps over the prover's scripts of the acceptance
    theorems, whose lines and rules differ from the transcripts'."""

    def test_formula_mutants(self):
        digest, reports = _verdicts(_formula_mutants(_emitted_proofs()))
        assert len(reports) == 6135 and not any(r.valid for r in reports)
        assert digest == "ad3131ccddbbc049"

    def test_justification_mutants(self):
        digest, reports = _verdicts(_justification_mutants(_emitted_proofs()))
        accepted = _accepted_without_countermodel(reports)
        assert (len(reports), len(accepted)) == (5530, 390)
        assert digest == "a5901f93570a8d71"


# Hand-written scripts for the justification tail: tab-separated and
# Unicode-digit cites, rule names that start with a digit or '.', a formula
# glued to its rule, nested and unbalanced annotations, annotations after a
# cite, and empty or comment-only records.
_TAIL_SCRIPTS = [
    "1. UNDIR x y  ASSUMED-PREMISE\n2. UNDIR x y  SAME\t1\n",
    "1. UNDIR x y  SAME\t1\t2\n",
    "1. UNDIR x y  SAME 1 \u0663\n",
    "1. UNDIR x y  SAME \u0663\n",
    "1. UNDIR x y  SAME 1\u06632\n",
    "1. UNDIR x y  SAME 1\u00a02\n",
    "1. UNDIR x y  SAME 1_0\n",
    "1. UNDIR x y  SAME 0 -3\n",
    "1. UNDIR x y  1SAME 1\n",
    "1. UNDIR x y  .SAME 1\n",
    "1. UNDIR x y  9.SIMP 1\n",
    "1. UNDIR x y  SA_ME-x.1 1\n",
    "1. UNDIR x y  SAM\u00c9 1\n",
    "1. UNDIR x y  \u00c9SAME 1\n",
    "1. UNDIR x xSIMP 1\n",
    "1. UNDIR x y SAME 1\n",
    "1. UNDIR x y  (v1 x) 1\n",
    "1. (Ax)UNDIR x x  US\n",
    "1. UNDIR x y  US (rev(rev(v1)) x) (v2 y) 1\n",
    "1. UNDIR x y  US ((v1) x) 1\n",
    "1. UNDIR x y  US ((v1 x) 1\n",
    "1. UNDIR x y  US (v1 x)) 1\n",
    "1. UNDIR x y  US v1 x) 1\n",
    "1. UNDIR x y  US (v1 x)(v2 y) 1 2\n",
    "1. UNDIR x y  US(v1 x) 1\n",
    "1. UNDIR x y  US (v1 x) 1 (v2 y) 2\n",
    "1. UNDIR x y  SAME (v1 x)\n",
    "1. UNDIR x y  SAME )\n",
    "1. UNDIR x y  US (v1 x)  \t 1  \n",
    "1. UNDIR x y\n   SAME\n   1\n",
    "1. UNDIR x y  SAME 1 # a comment 2\n",
    "1. UNDIR x y  SAME 1\n2.5  SAME 1\n",
    "1. 5\n",
    "1.SAME\n",
    "1. \n",
    "1.  # only a comment\n",
    "# a comment\n\n   \n",
]


def _script_mutants():
    """Seeded single-character deletions and insertions in the formula
    text and the justification tail of every numbered line of the corpus
    transcripts and the prover's emitted scripts, each in its whole script;
    then _TAIL_SCRIPTS."""
    scripts = [script_text(cid) for cid in corpus_ids()]
    scripts += [print_proof_script(proof) for _, proof in _emitted_proofs()]
    rng = random.Random(17)
    tail_alphabet = " \t()0123456789\u0663.-_xvSUE#"
    formula_alphabet = "~&|-()[],> xAEv1rU$"
    out = []
    for text in scripts:
        lines = text.split("\n")
        for i, line in enumerate(lines):
            number, dot, rest = line.partition(".")
            if not (number.isdigit() and dot):
                continue
            formula, gap, tail = rest.rpartition("  ")
            for in_tail, count, alphabet in ((True, 2, tail_alphabet), (False, 1, formula_alphabet)):
                part = tail if in_tail else formula
                for _ in range(count):
                    k = rng.randrange(len(part))
                    deleted = part[:k] + part[k + 1:]
                    k = rng.randrange(len(part) + 1)
                    inserted = part[:k] + rng.choice(alphabet) + part[k:]
                    for mutated in (deleted, inserted):
                        new = formula + gap + mutated if in_tail else mutated + gap + tail
                        out.append("\n".join(lines[:i] + [number + dot + new] + lines[i + 1:]))
    return out + _TAIL_SCRIPTS


class TestScriptFingerprint:
    def test_outcomes_pinned(self):
        # 2,305 scripts; 1,664 of them are rejected.  The digest covers each
        # script with its re-printed proof, or its ScriptError message and
        # line number.
        inputs = _script_mutants()
        digest = hashlib.sha256()
        rejected = 0
        for text in inputs:
            try:
                got = print_proof_script(parse_proof_script(text))
            except ScriptError as exc:
                got = f"{exc}|{exc.lineno}"
                rejected += 1
            digest.update(f"{text}\t{got}\n".encode())
        assert (len(inputs), rejected) == (2305, 1664)
        assert digest.hexdigest()[:16] == "ac5d87f8fe8826b4"
