import functools
import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dirgeo import search
from dirgeo.geometry import axiom, axiom_names
from dirgeo.kernel import Rule, check_proof, parse_proof_script, print_proof_script
from dirgeo.models import eval_formula, find_countermodel
from dirgeo.search import (
    SearchConfig,
    SearchStats,
    _Context,
    _decompose,
    _Engine,
    _Node,
    _term_sort_key,
    prove,
    prove_with_lemmas,
)
from dirgeo.syntax import (
    GEOMETRY,
    App,
    Atom,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Var,
    atoms,
    bound_vars,
    canonical_key,
    parse_formula,
    print_formula,
    rule_eq,
    subterms,
    term_vars,
)

FAST = SearchConfig(max_depth=2, max_term_depth=2, max_lines=30000)


def _prove_names(premises, goal, cfg=FAST):
    return prove([axiom(p) for p in premises], axiom(goal), cfg)


def _assert_refutes(r, premises, goal):
    """r is refuted by a structure in which, by the reference evaluator,
    every premise holds and the goal fails."""
    assert r.status == "refuted" and r.proof is None
    assert all(eval_formula(r.countermodel, p) for p in premises)
    assert not eval_formula(r.countermodel, goal)


class TestPositive:
    def test_w1_from_i6(self):
        r = _prove_names(["I6"], "W1", SearchConfig(max_depth=2, max_term_depth=1))
        assert r.proved and len(r.proof.lines) <= 20
        assert check_proof(r.proof).valid

    def test_w4_from_i6(self):
        r = _prove_names(["I6"], "W4", SearchConfig(max_depth=2, max_term_depth=1))
        assert r.proved and check_proof(r.proof).valid

    def test_oo_from_i5_odo(self):
        r = _prove_names(["I5", "ODO"], "OO", SearchConfig(max_depth=1, max_term_depth=1))
        assert r.proved and len(r.proof.lines) <= 16
        rep = check_proof(r.proof)
        assert rep.valid and rule_eq(rep.conclusion, axiom("OO"))

    def test_w2_direct(self):
        assert _prove_names(["I5", "I6", "ODO"], "W2").proved

    def test_w3_direct(self):
        assert _prove_names(["I5", "I6", "ODO"], "W3").proved

    def test_i6_from_i7_i8_odo(self):
        r = _prove_names(["I7", "I8", "ODO"], "I6", SearchConfig(max_depth=2, max_term_depth=3))
        assert r.proved
        rep = check_proof(r.proof)
        assert rep.valid
        assert {rule_eq(p, axiom(n)) for p, n in zip(rep.premises, ("I7", "I8", "ODO"))} == {True}

    def test_proof_has_exactly_given_premises_and_goal(self):
        r = _prove_names(["I6"], "W1", SearchConfig(max_depth=2, max_term_depth=1))
        rep = check_proof(r.proof)
        assert len(rep.premises) == 1 and rule_eq(rep.premises[0], axiom("I6"))
        assert rule_eq(rep.conclusion, axiom("W1"))

    def test_goal_among_the_premises_is_cited(self):
        cfg = SearchConfig(max_depth=1, max_term_depth=1, max_lines=250)
        for name in axiom_names():
            r = _prove_names([name], name, cfg)
            assert r.proved, name
            assert (r.stats.lines_generated, r.stats.instantiations_tried) == (0, 0)
            assert [l.just.rule for l in r.proof.lines] == [Rule.PREMISE]
            assert check_proof(r.proof).valid

    def test_goal_alpha_equal_to_a_premise(self):
        premise = parse_formula("(Ax)(Ay)[UNDIR x y -> UNDIR y x]")
        goal = parse_formula("(Au)(Av)[UNDIR u v -> UNDIR v u]")
        assert premise != goal
        r = prove([axiom("I5"), premise], goal, FAST)
        assert r.proved and r.stats.lines_generated == 0
        assert [l.formula for l in r.proof.lines] == [premise]
        rep = check_proof(r.proof)
        assert rep.valid and rule_eq(rep.conclusion, goal)

    def test_quantified_complement_cancels_a_disjunct(self):
        # the search cancels (Ex)P with (Ax)~P, and the kernel accepts that LDS
        premises = [parse_formula("(Ex)UNDIR x x | (Ay)UNDIR y y"), parse_formula("(Ax)~UNDIR x x")]
        r = prove(premises, parse_formula("(Ay)UNDIR y y"))
        assert r.proved and check_proof(r.proof).valid
        assert [l.just.rule for l in r.proof.lines][2] is Rule.LDS

    def test_emitted_script_reparses_and_rechecks(self):
        r = _prove_names(["I5", "ODO"], "OO", SearchConfig(max_depth=1, max_term_depth=1))
        text = print_proof_script(r.proof)
        assert check_proof(parse_proof_script(text)).valid


class TestStaged:
    def test_w2_staged_inlines_the_lemma(self):
        premises = [axiom("I5"), axiom("I6"), axiom("ODO")]
        r = prove_with_lemmas(premises, [([axiom("I5"), axiom("ODO")], axiom("OO"))], axiom("W2"), FAST)
        assert r.proved
        rep = check_proof(r.proof)
        assert rep.valid
        assert [rule_eq(p, q) for p, q in zip(rep.premises, premises)] == [True] * 3
        assert rule_eq(rep.conclusion, axiom("W2"))
        # OO really appears as an internal conclusion
        assert any(rule_eq(l.formula, axiom("OO")) for l in r.proof.lines)

    def test_w3_staged(self):
        premises = [axiom("I5"), axiom("I6"), axiom("ODO")]
        r = prove_with_lemmas(premises, [([axiom("I5"), axiom("ODO")], axiom("OO"))], axiom("W3"), FAST)
        assert r.proved and check_proof(r.proof).valid

    def test_goal_among_the_premises(self):
        premises = [axiom("I5"), axiom("ODO"), axiom("W2")]
        r = prove_with_lemmas(premises, [([axiom("I5"), axiom("ODO")], axiom("OO"))], axiom("W2"), FAST)
        assert r.proved
        rep = check_proof(r.proof)
        assert rep.valid and rule_eq(rep.conclusion, axiom("W2"))

    def test_unproved_lemma_ends_the_call(self):
        """The second lemma runs out of lines: its result comes back, with
        the stats of both lemma searches."""
        cfg = SearchConfig(2, 3, 100)
        theorem2 = [axiom("I7"), axiom("I8"), axiom("ODO")]
        first = prove([axiom("I6")], axiom("W1"), cfg)
        assert first.proved
        r = prove_with_lemmas(
            [axiom("I6"), *theorem2], [([axiom("I6")], axiom("W1")), (theorem2, axiom("I6"))],
            axiom("W2"), cfg,
        )
        assert (r.status, r.limits, r.proof) == ("budget-exceeded", ("max_lines",), None)
        assert r.stats.lines_generated == first.stats.lines_generated + 101

    def test_lemma_premises_must_be_subset(self):
        with pytest.raises(ValueError):
            prove_with_lemmas([axiom("I6")], [([axiom("I5")], axiom("OO"))], axiom("W2"), FAST)


class TestNegative:
    def test_w2_not_provable_from_i6_alone(self):
        """Refuted at size 2 before any search line."""
        r = _prove_names(["I6"], "W2", SearchConfig(max_depth=2, max_term_depth=2, max_lines=8000))
        _assert_refutes(r, [axiom("I6")], axiom("W2"))
        assert r.countermodel.describe() == "size=2 rev=[0 0] undir={(0,1), (1,0)}"
        assert (r.stats.lines_generated, r.stats.instantiations_tried, r.limits) == (0, 0, ())

    def test_i5_not_provable_from_nothing(self):
        r = _prove_names([], "I5", SearchConfig(max_depth=1, max_term_depth=1))
        _assert_refutes(r, [], axiom("I5"))
        assert r.countermodel.size == 1 and r.stats.lines_generated == 0

    def test_refuted_at_size_3_before_any_search(self):
        """No countermodel of size <= 2, and the search would fail: the
        size-3 scan refutes the sequent before any search line."""
        assert find_countermodel([axiom("I8")], axiom("W2"), 2) is None
        r = _prove_names(["I8"], "W2", SearchConfig(1, 1, 250))
        _assert_refutes(r, [axiom("I8")], axiom("W2"))
        assert r.countermodel.size == 3
        assert (r.stats.lines_generated, r.stats.instantiations_tried, r.limits) == (0, 0, ())

    def test_refuted_at_size_3_at_the_default_bounds(self):
        """W1 |- W3 would run the default search to its 50,000 lines."""
        r = prove([axiom("W1")], axiom("W3"), SearchConfig())
        _assert_refutes(r, [axiom("W1")], axiom("W3"))
        assert r.countermodel.size == 3
        assert (r.stats.lines_generated, r.stats.instantiations_tried, r.limits) == (0, 0, ())

    def test_staged_goal_refuted(self):
        """The lemma is proved, then I5, ODO, OO |- I6 is refuted."""
        premises = [axiom("I5"), axiom("ODO")]
        r = prove_with_lemmas(premises, [(premises, axiom("OO"))], axiom("I6"), FAST)
        _assert_refutes(r, premises + [axiom("OO")], axiom("I6"))
        assert r.stats.lines_generated == 169  # the lemma's search alone

    def test_open_goal_rejected(self):
        with pytest.raises(ValueError):
            prove([], parse_formula("UNDIR x y"), FAST)


class TestLimits:
    """A failed search names the bounds that cut it.  Every sequent here is
    valid, so no countermodel of size <= 3 turns it into a refutation."""

    @staticmethod
    def _fails_at(premises, goal, cfg, limits):
        assert find_countermodel(premises, goal, 3) is None
        r = prove(premises, goal, cfg)
        assert (r.status, r.limits, r.countermodel) == ("budget-exceeded", limits, None)
        return r

    def test_max_lines(self):
        premises = [axiom("I7"), axiom("I8"), axiom("ODO")]
        r = self._fails_at(premises, axiom("I6"), SearchConfig(2, 3, 100), ("max_lines",))
        assert r.stats.lines_generated == 101

    def test_max_term_depth(self):
        """The goal needs an instance at [rev [rev v1]], of term depth 2."""
        premises = [parse_formula("(Ax)UNDIR [rev [rev x]] x")]
        goal = parse_formula("(Ax)UNDIR [rev [rev [rev [rev x]]]] [rev [rev x]]")
        self._fails_at(premises, goal, SearchConfig(0, 1, 1000), ("max_term_depth",))
        assert prove(premises, goal, SearchConfig(0, 2, 1000)).proved

    def test_max_depth(self):
        """The goal needs a case split on UNDIR x y | UNDIR y x."""
        goal = parse_formula(
            "(Ax)(Ay)[[[UNDIR x y | UNDIR y x] & [UNDIR x y -> UNDIR x x]"
            " & [UNDIR y x -> UNDIR x x]] -> UNDIR x x]"
        )
        self._fails_at([], goal, SearchConfig(0, 1, 1000), ("max_depth",))
        assert prove([], goal, SearchConfig(1, 1, 1000)).proved

    @pytest.mark.parametrize(
        "premises,goal", [(["I7", "I8", "ODO"], "I6"), (["I6"], "W1"), (["I5", "ODO"], "OO")]
    )
    def test_term_depth_zero_instantiates_at_variables_only(self, premises, goal):
        r = _prove_names(premises, goal, SearchConfig(2, 0, 20000))
        assert r.proved and check_proof(r.proof).valid
        us = [l.just.annot for l in r.proof.lines if l.just.rule is Rule.US]
        assert us and all(len(a) == 1 and isinstance(a[0][0], Var) for a in us)

    def test_both_depth_bounds(self):
        premises = [axiom("I7"), axiom("I8"), axiom("ODO")]
        self._fails_at(premises, axiom("I6"), SearchConfig(0, 1, 20000), ("max_depth", "max_term_depth"))


class TestNesting:
    """A formula the search or the plans of its refutations would build past
    the node bound ends the call as budget-exceeded, limit nesting; prove
    never raises NestingError."""

    def test_derived_formula_too_tall(self):
        # instances of the 200-level premise at [rev ...] terms are 199 and
        # 200 levels, and the search indexes the negation of each
        sig = GEOMETRY.extended({"P": 1})
        premise = Forall("x", functools.reduce(lambda f, _: Not(f), range(197), Atom("P", (Var("x"),))))
        assert premise.height == 200
        r = prove([premise], parse_formula("(Ax)P [rev x]", sig), SearchConfig(max_term_depth=3))
        assert (r.status, r.limits, r.countermodel) == ("budget-exceeded", ("nesting",), None)

    def test_refutation_of_the_tallest_goal(self):
        # the refutation evaluates the goal's negative plan, (Ex)~UNDIR x x,
        # and builds no ~goal, which would be 201 levels
        goal = functools.reduce(lambda f, _: Forall("x", f), range(198), parse_formula("UNDIR x x"))
        assert goal.height == 200
        r = prove([], goal)
        assert (r.status, r.limits, r.countermodel.size) == ("refuted", (), 1)

    def test_refutation_of_a_tall_left_nested_premise(self):
        # (Ax)[UNDIR x x | ... | UNDIR x x | UNDIR x [rev^100 x]], nested
        # left, 123 levels: its plan rejoins the chain no taller, where a
        # right-nested rebuild of the chain would be 222 levels
        far = functools.reduce(lambda t, _: App("rev", (t,)), range(100), Var("x"))
        short = parse_formula("UNDIR x x")
        f = Forall("x", functools.reduce(Or, [short] * 120 + [Atom("UNDIR", (Var("x"), far))]))
        assert f.height == 123
        goal = parse_formula("(Ax)UNDIR x x")
        assert find_countermodel([f], goal, 2) is not None
        r = prove([f], goal)
        assert r.status == "refuted" and r.limits == ()

    def test_refutation_of_a_premise_with_a_long_balanced_chain(self):
        # (Ax)[B | UNDIR x x], B a balanced | of 256 closed parts
        # (Ey_k)UNDIR y_k y_k, is 13 levels; miniscoping takes B's parts
        # out of the (Ax), and rejoined nested to one side they would be
        # 257 levels
        def balanced(parts):
            half = len(parts) // 2
            return parts[0] if half == 0 else Or(balanced(parts[:half]), balanced(parts[half:]))

        parts = [Exists(f"y{k}", Atom("UNDIR", (Var(f"y{k}"),) * 2)) for k in range(256)]
        premise = Forall("x", Or(balanced(parts), parse_formula("UNDIR x x")))
        assert premise.height == 13
        goal = parse_formula("(Ax)UNDIR x x")
        assert find_countermodel([premise], goal, 2).describe() == "size=2 rev=[0 0] undir={(1,1)}"
        r = prove([premise], goal)
        assert (r.status, r.limits, r.countermodel.size) == ("refuted", (), 2)

    def test_negative_plan_at_the_bound(self):
        # G = (Ax0)[UNDIR x0 x0 | (Ax1)[UNDIR x1 x0 | ...]] is 199 levels and
        # A -> G 200; the refutation's plan of its negation, A & (Ex0)[~UNDIR
        # x0 x0 & ...], reads each ~UNDIR in a node of the atom's height, so
        # it is 200 levels too
        g = parse_formula("(Ax98)UNDIR x98 x97")
        for k in range(97, -1, -1):
            g = Forall(f"x{k}", Or(Atom("UNDIR", (Var(f"x{k}"), Var(f"x{max(k - 1, 0)}"))), g))
        assert g.height == 199
        goal = Implies(parse_formula("(Az)UNDIR z [rev z]"), g)
        r = prove([], goal)
        _assert_refutes(r, [], goal)
        assert (r.stats, r.limits, r.countermodel.size) == (SearchStats(), (), 2)
        # after (Az)UNDIR z z, G holds: no countermodel, so the search runs
        r = prove([], Implies(parse_formula("(Az)UNDIR z z"), g))
        assert (r.status, r.limits, r.countermodel) == ("budget-exceeded", ("max_term_depth",), None)
        assert r.stats.lines_generated > 0

    def test_goal_at_the_text_bound(self):
        goal = parse_formula("~" * 97 + "(Ax)UNDIR x x")
        assert goal.height == 100
        assert find_countermodel([], goal, 2).size == 1
        r = prove([], goal)
        assert r.status == "refuted" and r.countermodel.size == 1


class TestUninterpreted:
    """A sequent with a symbol the structures do not interpret is searched
    as it was before the model check: same status and counters, pinned
    from the prover without it, and no countermodel."""

    CUSTOM = GEOMETRY.extended({"P": 1}, {"f": 1})
    UNDIR3 = GEOMETRY.extended({"UNDIR": 3})

    @pytest.mark.parametrize(
        "premises, goal, sig, status, lines, insts",
        [
            (["I7conv"], "W1", None, "budget-exceeded", 114, 42),
            ([], "I7conv", None, "exhausted", 0, 0),
            (["I6"], "I7conv", None, "budget-exceeded", 114, 42),
            (["(Ax)(Ay)[UNDIR x y -> P x]"], "(Ax)P x", CUSTOM, "budget-exceeded", 14, 6),
            (["(Ax)UNDIR x [f x]"], "(Ax)UNDIR [f x] x", CUSTOM, "budget-exceeded", 3, 3),
            ([], "(Ax)P x", CUSTOM, "exhausted", 0, 0),
            (["(Ax)(Ay)(Az)[UNDIR x y z -> UNDIR y x z]"], "(Ax)(Ay)UNDIR x y x", UNDIR3,
             "budget-exceeded", 251, 84),
        ],
    )
    def test_searched_as_before(self, premises, goal, sig, status, lines, insts):
        read = axiom if sig is None else (lambda text: parse_formula(text, sig))
        r = prove([read(p) for p in premises], read(goal), SearchConfig(1, 1, 250))
        assert (r.status, r.stats.lines_generated, r.stats.instantiations_tried) == (
            status, lines, insts
        )
        assert r.countermodel is None


class TestUninterpretedReasons:
    """prove works out once per formula why the structures do not interpret
    it; a later scan still names the first offender of its own sequent."""

    SIG = GEOMETRY.extended({"Q": 2}, {"g": 2})

    def test_same_message_before_and_after_prove(self):
        q = parse_formula("(Ax)(Ay)Q x [rev y]", self.SIG)
        g = parse_formula("(Ax)UNDIR x [g x x]", self.SIG)

        def messages():
            out = []
            for premises, goal in [([axiom("I5"), q], g), ([axiom("I5"), g], q)]:
                with pytest.raises(ValueError) as caught:
                    find_countermodel(premises, goal, 3)
                out.append(str(caught.value))
            return out

        before = messages()
        assert before == [
            "structure does not interpret predicate 'Q'/2",
            "structure does not interpret function 'g'/2",
        ]
        assert prove([axiom("I5"), q], g, SearchConfig(1, 1, 250)).countermodel is None
        assert messages() == before


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        cfg = SearchConfig(max_depth=2, max_term_depth=3)
        runs = [_prove_names(["I7", "I8", "ODO"], "I6", cfg) for _ in range(2)]
        assert runs[0].status == runs[1].status == "proved"
        assert print_proof_script(runs[0].proof) == print_proof_script(runs[1].proof)
        assert runs[0].stats.lines_generated == runs[1].stats.lines_generated
        assert runs[0].stats.instantiations_tried == runs[1].stats.instantiations_tried

    def test_stats_populated(self):
        r = _prove_names(["I6"], "W1", SearchConfig(max_depth=1, max_term_depth=1))
        assert r.stats.lines_generated > 0
        assert r.stats.instantiations_tried > 0

    # Status, counters and the first 16 hex digits of the sha256 of the
    # emitted script (no header).  Any change here changes what users see.
    @pytest.mark.parametrize(
        "premises, goal, staged, cfg, status, lines, insts, digest",
        [
            (["I6"], "W1", False, (2, 1), "proved", 95, 54, "662b0b9ce3439924"),
            (["I6"], "W4", False, (2, 1), "proved", 95, 54, "954870714b79da6b"),
            (["I5", "ODO"], "OO", False, (1, 1), "proved", 169, 88, "984722f91812d852"),
            (["I5", "I6", "ODO"], "W2", True, (2, 2), "proved", 949, 454, "2c4ea5d9d3c0c4bb"),
            (["I5", "I6", "ODO"], "W3", True, (2, 2), "proved", 971, 454, "83848f387f8f9f52"),
            (["I7", "I8", "ODO"], "I6", False, (2, 3), "proved", 929, 360, "14cf35696d8a21b1"),
            (["I5", "I6", "ODO"], "W2", False, (2, 2), "proved", 734, 342, "408fc274ac731c89"),
            (["I6"], "W2", False, (2, 2, 8000), "refuted", 0, 0, None),
            (["W1"], "W1", False, (2, 1, 2000), "proved", 0, 0, "764fc73590e5dbd2"),
            (["I5"], "I5", False, (1, 1, 250), "proved", 0, 0, "a9c0a6b0f325036e"),
        ],
    )
    def test_pinned_results(self, premises, goal, staged, cfg, status, lines, insts, digest):
        cfg = SearchConfig(*cfg)
        if staged:
            lemmas = [([axiom("I5"), axiom("ODO")], axiom("OO"))]
            r = prove_with_lemmas([axiom(p) for p in premises], lemmas, axiom(goal), cfg)
        else:
            r = _prove_names(premises, goal, cfg)
        assert (r.status, r.stats.lines_generated, r.stats.instantiations_tried) == (
            status, lines, insts
        )
        if status == "refuted":
            _assert_refutes(r, [axiom(p) for p in premises], axiom(goal))
        else:
            script = print_proof_script(r.proof).encode()
            assert hashlib.sha256(script).hexdigest()[:16] == digest

    @staticmethod
    def _fuzz_rows():
        """Every 0/1-premise catalog sequent whose goal is not a premise, at
        the fuzz config, as (result, row): the row is status, counters and
        script, then the bounds that cut a failed search and the countermodel
        of a refuted one.  A refutation is re-checked here, and carries no
        search counters or bounds: it comes before any search."""
        names = list(axiom_names())
        cfg = SearchConfig(1, 1, 250)
        for premises in [[]] + [[p] for p in names]:
            for goal in names:
                if goal in premises:
                    continue
                r = _prove_names(premises, goal, cfg)
                script = print_proof_script(r.proof) if r.proved else ""
                row = (
                    f"{','.join(premises)} {goal} {r.status} {r.stats.lines_generated} "
                    f"{r.stats.instantiations_tried} {hashlib.sha256(script.encode()).hexdigest()}"
                )
                if r.limits:
                    row += f" limit={','.join(r.limits)}"
                if r.status == "refuted":
                    _assert_refutes(r, [axiom(p) for p in premises], axiom(goal))
                    assert (r.stats, r.limits) == (SearchStats(), ()), row
                    row += f" {r.countermodel.describe()}"
                yield r, row + "\n"

    def test_fuzz_fingerprint(self):
        digest = hashlib.sha256()
        statuses = Counter()
        for r, row in self._fuzz_rows():
            digest.update(row.encode())
            statuses[r.status, r.countermodel and r.countermodel.size] += 1
        assert statuses == {
            ("refuted", 1): 20, ("refuted", 2): 64, ("refuted", 3): 9, ("proved", None): 6,
            ("budget-exceeded", None): 21, ("exhausted", None): 1,
        }
        assert digest.hexdigest()[:16] == "5d7578df2336340a"

    def test_refutations_need_no_search(self, monkeypatch):
        """Every refuted fuzz row comes out refuted when searching raises."""
        refuted = [row for r, row in self._fuzz_rows() if r.status == "refuted"]

        def no_search(*args):
            raise AssertionError("searched a sequent with a countermodel")

        monkeypatch.setattr(search, "_search", no_search)
        for row in refuted:
            premises, goal = row.split(" ")[:2]
            r = _prove_names([p for p in premises.split(",") if p], goal, SearchConfig(1, 1, 250))
            assert r.status == "refuted", row

    def test_fuzz_proved_rows(self):
        """The proved rows of the fuzz fingerprint alone."""
        digest = hashlib.sha256()
        proved = 0
        for r, row in self._fuzz_rows():
            if r.proved:
                proved += 1
                digest.update(row.encode())
        assert (proved, digest.hexdigest()[:16]) == (6, "e901af45728ad167")


# Run in a fresh interpreter by TestHashSeeds: every pinned row of
# TestDeterminism, its fuzz fingerprint, and one countermodel query.
_SEEDED_RUN = """
from dirgeo.geometry import axiom
from dirgeo.models import find_countermodel
from test_search import TestDeterminism

mark = next(m for m in TestDeterminism.test_pinned_results.pytestmark if m.name == "parametrize")
for row in mark.args[1]:
    TestDeterminism().test_pinned_results(*row)
    print("pinned", row)
TestDeterminism().test_fuzz_fingerprint()
print("fuzz fingerprint")
hit = find_countermodel([axiom("I5"), axiom("I6")], axiom("W2"), 4)
print("countermodel", hit.describe())
"""


# Both ~Q and ~~~Q contradict the consequent ~~Q: which one MT cites must
# not depend on the hash seed (seeds 0 and 1 once cited different ones).
_CONTRADICTION_RUN = """
from dirgeo.kernel import print_proof_script
from dirgeo.search import prove
from dirgeo.syntax import parse_formula as F

P, Q = "(Ex)UNDIR x x", "(Ex)UNDIR x [rev x]"
r = prove([F(f"{P} -> ~~{Q}"), F(f"~{Q}"), F(f"~~~{Q}")], F(f"~{P}"))
print(print_proof_script(r.proof), end="")
"""


class TestHashSeeds:
    """Nodes hash by identity, so by memory address, and strings by the
    hash seed: no output may depend on the iteration order of a set."""

    @staticmethod
    def _outputs(code):
        """The stdout of code run in a fresh interpreter under hash seeds 0 and 1."""
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in ("0", "1")
        ]
        try:
            results = [run.communicate(timeout=300) for run in runs]
        finally:
            for run in runs:
                run.kill()
        for run, (_, err) in zip(runs, results):
            assert run.returncode == 0, err
        return [out for out, _ in results]

    def test_outputs_do_not_depend_on_the_hash_seed(self):
        outputs = self._outputs(_SEEDED_RUN)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("pinned") == 10 and "countermodel size=" in outputs[0]

    def test_cited_contradiction_does_not_depend_on_the_hash_seed(self):
        outputs = self._outputs(_CONTRADICTION_RUN)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[-1].split() == ["3.", "~(Ex)UNDIR", "x", "x", "MT", "1", "2"]


class TestPool:
    """The incremental pool against a rescan of the whole branch."""

    @staticmethod
    def _closed_form(ctx, d):
        branch = ctx.engine.branch_vars
        occurring = {
            s
            for n in ctx.order
            for atom in atoms(n.formula)
            for t in atom.args
            for s in subterms(t)
            if term_vars(s) <= branch
        }
        # A term's height is its rev-nesting plus one, for the variable.
        base = {t for t in occurring if t.height <= d + 1} | {Var(v) for v in branch}
        pruned = any(t.height > d + 1 for t in occurring)
        pool = base | {App("rev", (t,)) for t in base if t.height < d + 1}
        pruned = pruned or any(t.height == d + 1 for t in base)
        return sorted(pool, key=_term_sort_key), pruned

    @staticmethod
    def _context(d=1, saturate=True):
        """The root context of I6 |- W1 at term depth d."""
        premises, goal = [axiom("I6")], axiom("W1")
        taken = set(bound_vars(premises[0]) | bound_vars(goal))
        seeded = frozenset(taken)
        _, assumptions, _ = _decompose(goal, taken)
        engine = _Engine(SearchConfig(max_term_depth=d), taken - seeded)
        ctx = _Context(engine)
        wl = []
        for i, f in enumerate(premises + assumptions):
            ctx.add(_Node(f, Rule.PREMISE, seq=i), wl)
        if saturate:
            ctx.saturate(None, d, wl)
        return ctx

    @staticmethod
    def _open_case(ctx, case, d=1):
        """Add the disjunction case | ~case, assume its left side as a case
        and saturate the branch."""
        wl = []
        side = parse_formula(case)
        disjunction = ctx.add(ctx.engine.node(Or(side, Not(side)), Rule.PREMISE), wl)
        ctx.add(ctx.engine.node(side, Rule.CASE1, (disjunction,)), wl)
        ctx.saturate(None, d, wl)

    @staticmethod
    def _state(ctx):
        return (
            list(ctx.nodes.items()),
            list(ctx.order),
            {k: [list(v) for v in by_row.values()] for k, by_row in ctx.majors.items()},
            list(ctx.universals),
            list(ctx.split_disjunctions),
            list(ctx.pool_terms),
            ctx.scanned,
            ctx.pool,
            ctx.crossed,
            list(ctx.trail),
        )

    def test_pool_after_clone_matches_a_rescan(self):
        """The pool of a case branch, opened with mark() and closed with
        undo(), and of the context it returns to."""
        d = 1
        ctx = self._context(d)
        engine = ctx.engine
        before = list(ctx.order)
        assert ctx._pool(d) == self._closed_form(ctx, d)[0]
        state = self._state(ctx)

        # [rev v3] and [rev v1] are in the pool already, [rev [rev v1]] is too deep
        mark = ctx.mark()
        self._open_case(ctx, "~UNDIR [rev v3] [rev [rev v1]]", d)
        assert len(ctx.order) > len(before)
        expected, pruned = self._closed_form(ctx, d)
        assert App("rev", (Var("v3"),)) in expected
        assert ctx._pool(d) == expected
        assert ("max_term_depth" in engine.limits) == pruned

        ctx.undo(mark)
        assert ctx.order == before and self._state(ctx) == state
        assert ctx._pool(d) == self._closed_form(ctx, d)[0]

    def test_undo_restores_the_context_exactly(self):
        # unsaturated, so that the case still has pool terms to add
        ctx = self._context(saturate=False)
        ctx._pool(1)
        before = self._state(ctx)
        mark = ctx.mark()
        ctx.split_disjunctions[canonical_key(ctx.order[-1].formula)] = None
        # a new universal, implications and disjunctions, and a new base term
        self._open_case(ctx, "(Ax)[UNDIR x [rev v3] -> UNDIR v1 x] & [UNDIR v2 v3 | UNDIR v3 v2]")
        ctx._pool(1)
        after = self._state(ctx)
        # the case changed every part, so a part that undo skips would show
        for was, now in zip(before, after):
            assert was != now
        ctx.undo(mark)
        assert self._state(ctx) == before


def _atom_terms(f):
    return {t for atom in atoms(f) for t in atom.args}


class TestRowsBringNoTerm:
    """_Context._pool scans no line derived by a rule of kernel.RULE_ROWS
    and no case assumption: the atom arguments of such a line are among
    those of the lines it cites, in every line the search adds and in every
    proof it emits."""

    ROW_RULES = set(search._NO_NEW_TERMS)
    # the search workload's theorems: premises, goal, staged via OO, config
    THEOREMS = [
        (["I6"], "W1", False, SearchConfig(max_depth=2, max_term_depth=1)),
        (["I6"], "W4", False, SearchConfig(max_depth=2, max_term_depth=1)),
        (["I5", "ODO"], "OO", False, SearchConfig(max_depth=1, max_term_depth=1)),
        (["I5", "I6", "ODO"], "W2", True, SearchConfig(max_depth=2, max_term_depth=2)),
        (["I5", "I6", "ODO"], "W3", True, SearchConfig(max_depth=2, max_term_depth=2)),
        (["I7", "I8", "ODO"], "I6", False, SearchConfig(max_depth=2, max_term_depth=3)),
    ]

    def _check(self, monkeypatch, runs):
        """Run each (premises, goal, staged, cfg); check every line added and every proof."""
        added = []
        add = _Context.add

        def recording_add(ctx, node, worklist):
            added.append(node)
            return add(ctx, node, worklist)

        monkeypatch.setattr(_Context, "add", recording_add)
        proofs = []
        for premises, goal, staged, cfg in runs:
            if staged:
                lemmas = [([axiom("I5"), axiom("ODO")], axiom("OO"))]
                r = prove_with_lemmas([axiom(p) for p in premises], lemmas, axiom(goal), cfg)
            else:
                r = _prove_names(premises, goal, cfg)
            if r.proved:
                proofs.append(r.proof)
        rows = [n for n in added if n.rule in self.ROW_RULES]
        for n in rows:
            assert _atom_terms(n.formula) <= set().union(*map(_atom_terms, (c.formula for c in n.cited)))
        lines = 0
        for proof in proofs:
            by_number = {line.number: line for line in proof.lines}
            for line in proof.lines:
                if line.just.rule in self.ROW_RULES:
                    cited = (by_number[c].formula for c in line.just.cited)
                    assert _atom_terms(line.formula) <= set().union(*map(_atom_terms, cited)), line
                    lines += 1
        return len(rows), len(proofs), lines

    def test_search_workload_theorems(self, monkeypatch):
        rows, proofs, lines = self._check(monkeypatch, self.THEOREMS)
        assert proofs == len(self.THEOREMS) and rows > 1000 and lines > 50

    def test_fuzz_sample(self, monkeypatch):
        rng = random.Random(31)
        names = [n for n in axiom_names() if n != "I7conv"]
        cfg = SearchConfig(max_depth=1, max_term_depth=1, max_lines=250)
        runs = [(rng.sample(names, rng.randrange(0, 3)), rng.choice(names), False, cfg) for _ in range(150)]
        rows, proofs, lines = self._check(monkeypatch, runs)
        assert rows > 400 and proofs > 0 and lines > 0


class TestDerivationOrder:
    """_combine derives from a line in a fixed order: IMP, MP, MT from an
    implication, LDS, RDS, DISTRIBUTIVE-LAW from a disjunction, and from a
    line that fits major lines already derived, their rules in the order
    MP, MT, LDS, RDS.  The emitted scripts depend on that order."""

    @staticmethod
    def _context(lines, combined):
        """A context holding lines, with the first `combined` of them combined."""
        ctx, wl = _Context(_Engine(SearchConfig(), frozenset())), []
        for i, line in enumerate(lines):
            node = ctx.add(_Node(parse_formula(line), Rule.PREMISE, seq=i), wl)
            if i < combined:
                ctx._combine(node, wl)
        return ctx, node

    @pytest.mark.parametrize("minors, line, derived", [
        (["UNDIR a b"], "UNDIR a b -> UNDIR c d",
         [(Rule.IMP, "~UNDIR a b | UNDIR c d"), (Rule.MP, "UNDIR c d")]),
        (["~UNDIR c d"], "UNDIR a b -> UNDIR c d",
         [(Rule.IMP, "~UNDIR a b | UNDIR c d"), (Rule.MT, "~UNDIR a b")]),
        (["~UNDIR c d", "UNDIR a b"], "UNDIR a b -> UNDIR c d",
         [(Rule.IMP, "~UNDIR a b | UNDIR c d"), (Rule.MP, "UNDIR c d"), (Rule.MT, "~UNDIR a b")]),
        (["~UNDIR a b"], "UNDIR a b | UNDIR c c & UNDIR d d",
         [(Rule.LDS, "UNDIR c c & UNDIR d d"),
          (Rule.DISTRIBUTIVE_LAW, "[UNDIR a b | UNDIR c c] & [UNDIR a b | UNDIR d d]")]),
        (["~UNDIR a b"], "UNDIR c c & UNDIR d d | UNDIR a b",
         [(Rule.RDS, "UNDIR c c & UNDIR d d"),
          (Rule.DISTRIBUTIVE_LAW, "[UNDIR c c | UNDIR a b] & [UNDIR d d | UNDIR a b]")]),
        (["~UNDIR c c", "~UNDIR a b"], "UNDIR a b | UNDIR c c",
         [(Rule.LDS, "UNDIR c c"), (Rule.RDS, "UNDIR a b")]),
    ], ids=["IMP-MP", "IMP-MT", "IMP-MP-MT", "LDS-DISTRIBUTIVE-LAW", "RDS-DISTRIBUTIVE-LAW", "LDS-RDS"])
    def test_order_of_the_lines_derived(self, minors, line, derived):
        ctx, node = self._context(minors + [line], 0)
        ctx._combine(node, [])
        assert [(n.rule, print_formula(n.formula)) for n in ctx.order[len(minors) + 1:]] == derived

    def test_order_of_the_major_lines_a_line_fits(self):
        # the major lines come in the reverse of the rows' order
        majors = ["UNDIR g g | ~UNDIR a b", "~UNDIR a b | UNDIR f f", "UNDIR e e -> ~UNDIR a b",
                  "UNDIR a b -> UNDIR c d"]
        ctx, node = self._context(majors + ["UNDIR a b"], len(majors))
        before = len(ctx.order)
        ctx._combine(node, [])
        assert [(n.rule, print_formula(n.formula)) for n in ctx.order[before:]] == [
            (Rule.MP, "UNDIR c d"), (Rule.MT, "~UNDIR e e"), (Rule.LDS, "UNDIR f f"), (Rule.RDS, "UNDIR g g")]


class TestSoundnessFuzz:
    def test_proved_claims_have_no_small_countermodel(self):
        rng = random.Random(7)
        names = list(axiom_names())
        names.remove("I7conv")  # contains defined atoms; models need the core
        cfg = SearchConfig(max_depth=1, max_term_depth=1, max_lines=250)
        proved = 0
        for _ in range(1000):
            k = rng.randrange(0, 3)
            premises = rng.sample(names, k)
            goal = rng.choice(names)
            r = prove([axiom(p) for p in premises], axiom(goal), cfg)
            if r.proved:
                proved += 1
                assert check_proof(r.proof).valid
                assert find_countermodel([axiom(p) for p in premises], axiom(goal), 3) is None
            elif r.status == "refuted":
                _assert_refutes(r, [axiom(p) for p in premises], axiom(goal))
        assert proved > 0
