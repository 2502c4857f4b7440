import functools
import hashlib
import itertools
import random
import time

import pytest

from dirgeo import models
from dirgeo.geometry import GEOMETRY_WITH_DEFS, axiom, defined_form, expand_defs, w_decomposition
from dirgeo.models import (
    MAX_SIZE,
    Structure,
    UnassignedVariable,
    _atom_tables,
    _compiled,
    _Compiler,
    _Evaluator,
    _joined,
    _plan,
    _structure_from_index,
    countermodel_at_size,
    direction_circle,
    enumerate_structures,
    equivalent_on_all,
    eval_formula,
    find_countermodel,
    interprets,
    rev_representatives,
    structure_count,
)
from dirgeo.syntax import (
    GEOMETRY,
    And,
    App,
    Atom,
    Exists,
    Forall,
    Not,
    Or,
    Var,
    build_and,
    flatten_or,
    parse_formula,
)
from helpers import closed_up, random_formula


def _struct(n, pairs, rev):
    table = tuple(tuple((i, j) in pairs for j in range(n)) for i in range(n))
    return Structure(n, table, tuple(rev))


INEQ2 = _struct(2, {(0, 1), (1, 0)}, rev=(1, 0))


class TestEval:
    def test_i5_on_inequality_model(self):
        assert eval_formula(INEQ2, axiom("I5")) is True

    def test_i8_fails_with_identity_rev(self):
        s = _struct(2, {(0, 1), (1, 0)}, rev=(0, 1))
        assert eval_formula(s, axiom("I8")) is False

    def test_direction_circle_satisfies_all(self):
        dc = direction_circle(4)
        for name in ("I5", "I6", "I7", "I8", "ODO"):
            assert eval_formula(dc, axiom(name)) is True, name

    def test_open_formula_needs_assignment(self):
        f = parse_formula("UNDIR x y")
        assert eval_formula(INEQ2, f, {"x": 0, "y": 1}) is True
        assert eval_formula(INEQ2, f, {"x": 0, "y": 0}) is False
        with pytest.raises(UnassignedVariable):
            eval_formula(INEQ2, f, {"x": 0})

    def test_rev_term_evaluation(self):
        f = parse_formula("UNDIR x [rev x]")
        assert eval_formula(INEQ2, f, {"x": 0}) is True

    @pytest.mark.parametrize("seed", range(15))
    def test_closed_formula_ignores_assignment(self, seed):
        rng = random.Random(4000 + seed)
        f = closed_up(random_formula(rng, depth=3))
        junk = {v: rng.randrange(2) for v in ("x", "y", "q", "r")}
        assert eval_formula(INEQ2, f) == eval_formula(INEQ2, f, junk)


class TestEnumeration:
    def test_counts(self):
        assert structure_count(1) == 2
        assert structure_count(2) == 64
        assert structure_count(3) == 13824
        assert sum(1 for _ in enumerate_structures(1)) == 2
        assert sum(1 for _ in enumerate_structures(2)) == 64

    def test_documented_order(self):
        first, second = itertools.islice(enumerate_structures(2), 2)
        assert first.rev == (0, 0) and not any(itertools.chain(*first.undir))
        assert second.rev == (0, 0) and second.undir == ((False, False), (False, True))
        everything = list(enumerate_structures(2))
        assert everything[-1].rev == (1, 1) and all(itertools.chain(*everything[-1].undir))

    def test_unique(self):
        seen = set(enumerate_structures(2))
        assert len(seen) == 64

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_agrees_with_recursive_eval(self, seed):
        rng = random.Random(5000 + seed)
        _assert_scan_agrees(closed_up(random_formula(rng, depth=3)))

    @pytest.mark.parametrize(
        "text",
        ["(Ax)[UNDIR x x | (Ax)UNDIR x [rev x]]",
         "(Ax)[UNDIR x x | (Ey)[(Ax)UNDIR y x & UNDIR x [rev y]]]",
         "(Ax)(Ay)UNDIR x x"],
        ids=["shadowed-binder", "nested-shadowed-binder", "vacuous-quantifier"],
    )
    def test_batch_agrees_where_miniscoping_moves_binders(self, text):
        _assert_scan_agrees(parse_formula(text))

    def test_batch_agrees_under_an_all_false_left_disjunct(self):
        # The left part of the | is a contradiction, all-false in every
        # undir table, so | must return its right part as it is.
        _assert_scan_agrees(parse_formula("(Ax)[[UNDIR x x & ~UNDIR x x] | UNDIR x [rev x]]"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_atom_tables_match_the_decoded_structures(self, n):
        atoms = _atom_tables(n)
        for k in range(2 ** (n * n)):
            s = _structure_from_index(n, (0,) * n, k)
            for i in range(n):
                for j in range(n):
                    assert bool(atoms[i][j] >> k & 1) == s.undir[i][j], (k, i, j)

    def test_chain_rejoined_in_order_as_short_as_it_can_be(self):
        # against the least height of any tree over the parts in their
        # order, by interval dynamic programming
        rng = random.Random(11)
        atom = parse_formula("UNDIR x x")
        for _ in range(300):
            heights = [rng.choice([2, 2, rng.randint(2, 30)]) for _ in range(rng.randint(1, 12))]
            parts = [functools.reduce(lambda f, _: Not(f), range(h - 2), atom) for h in heights]

            @functools.lru_cache(maxsize=None)
            def least(i, j):
                if i == j:
                    return heights[i]
                return 1 + min(max(least(i, k), least(k + 1, j)) for k in range(i, j))

            joined = _joined(Or, parts)
            assert flatten_or(joined) == parts
            assert joined.height == least(0, len(parts) - 1), heights


def _assert_scan_agrees(f, sizes=(1, 2, 3)):
    """The scan's evaluator agrees with eval_formula at each size, for
    every rev table, with one memo shared by all rev tables of a size as in
    a scan, and with ~f valued first to fill it.  Every undir table is
    compared at sizes 1 and 2, a seeded sample of 64 at size 3."""
    rng = random.Random(7)
    for n in sizes:
        shared = {}
        for rev in itertools.product(range(n), repeat=n):
            value = _Evaluator(n, rev, shared)
            value(Not(f))
            got = value(f)
            indices = range(2 ** (n * n))
            for idx in indices if n < 3 else rng.sample(indices, 64):
                s = _structure_from_index(n, rev, idx)
                assert bool(got >> idx & 1) == eval_formula(s, f), (n, rev, idx)


def _first_by_eval(premises, goal, max_n):
    """find_countermodel by eval_formula over every structure in order."""
    structures = itertools.chain.from_iterable(map(enumerate_structures, range(1, max_n + 1)))
    return next((s for s in structures if all(eval_formula(s, p) for p in premises)
                 and not eval_formula(s, goal)), None)


def _x(i):
    return Var(f"x{i}")


def _rev(t, times=1):
    return functools.reduce(lambda t, _: App("rev", (t,)), range(times), t)


def _alternation(k):
    """(Ax0)(Ex1)(Ax2)...: k + 1 quantifiers, nested in the plan too, since
    each body mentions its variable and the one bound just outside; the
    innermost atom has a rev term."""
    f = Atom("UNDIR", (_x(k - 1), _rev(_x(k))))
    for i in range(k, 0, -1):
        cls, junction = (Forall, Or) if i % 2 == 0 else (Exists, And)
        f = cls(f"x{i}", f if i == k else junction(Atom("UNDIR", (_x(i - 1), _x(i))), f))
    return Forall("x0", f)


def _junctions(k, leaf):
    """(Ax0) over k nested &/| alternating, leaf and UNDIR x0 x0 beside them."""
    f = leaf
    for i in range(k):
        f = (And if i % 2 else Or)(leaf if i % 3 else Atom("UNDIR", (_x(0), _x(0))), f)
    return Forall("x0", f)


def _renamed(f, names):
    """f with every variable, bound or free, renamed through names."""
    cls = type(f)
    if cls is Var:
        return Var(names[f.name])
    if cls is App or cls is Atom:
        return cls(f.fn if cls is App else f.pred, tuple(_renamed(a, names) for a in f.args))
    if cls is Forall or cls is Exists:
        return cls(names[f.var], _renamed(f.body, names))
    if cls is Not:
        return Not(_renamed(f.body, names))
    return cls(_renamed(f.left, names), _renamed(f.right, names))


class TestCompiledPlans:
    """The scan runs each plan as generated Python source (models._compiled)."""

    @pytest.mark.parametrize(
        "f",
        [_alternation(24), _alternation(59), _junctions(195, Atom("UNDIR", (_x(0), _rev(_x(0))))),
         Forall("x0", Atom("UNDIR", (_x(0), _rev(_x(0), 196)))),
         _junctions(100, Atom("UNDIR", (_x(0), _rev(_x(0), 96))))],
        ids=["25-quantifiers", "60-quantifiers", "195-junctions", "rev196", "100-junctions-rev96"],
    )
    def test_past_the_interpreter_nesting_limits(self, f):
        # eval_formula takes seconds on the deep alternations at size 3
        _assert_scan_agrees(f, sizes=(1, 2))
        for premises, goal in (([], f), ([f], parse_formula("(Ax)UNDIR x x"))):
            assert find_countermodel(premises, goal, 2) == _first_by_eval(premises, goal, 2)

    HOSTILE = {"x": "x'); import os #", "y": "y\n", "z": "z]"}  # sorted as x, y, z

    def test_hostile_variable_names(self):
        sequent = [axiom("I5"), axiom("I6"), axiom("W3")]
        hostile = [_renamed(f, self.HOSTILE) for f in sequent]
        assert find_countermodel(hostile[:2], hostile[2], 3) == find_countermodel(sequent[:2], sequent[2], 3)

    def test_variable_names_never_reach_the_source(self):
        for f in (axiom("I5"), axiom("I6"), axiom("W3")):
            g = _renamed(f, self.HOSTILE)
            plain, code = _compiled(_plan(f, True)).__code__, _compiled(_plan(g, True)).__code__
            assert (code.co_code, code.co_names, code.co_varnames, code.co_consts) == (
                plain.co_code, plain.co_names, plain.co_varnames, plain.co_consts)

    def test_a_shared_part_is_compiled_once(self):
        # 150 levels of And(f, f): 2^150 atoms as a tree, 152 nodes as shared
        atom = Atom("UNDIR", (_x(0), _rev(_x(0))))
        f = functools.reduce(lambda f, _: And(f, f), range(150), atom)
        value = _Evaluator(3, (1, 2, 0), {})
        assert _compiled(Forall("x0", f))(*value.tables) == value(Forall("x0", atom))

    @pytest.mark.parametrize(
        "text",
        ["(Ax)[[(Ay)UNDIR x [rev y] | (Ez)~UNDIR z [rev x]] & [~UNDIR x x | (Ez)~UNDIR z [rev x]]]",
         "(Ex)(Ay)UNDIR x [rev y] & (Ex)(Ay)UNDIR x [rev y]",
         # the first (Ew) is valued inside the rev-free (Az), which the
         # second rev table finds in the shared memo and does not run
         "(Ax)[(Az)[UNDIR z z | (Ew)[UNDIR x w & UNDIR w w] & UNDIR x z]"
         " | (Ay)[UNDIR y [rev y] | (Au)[UNDIR u [rev y] | (Ew)[UNDIR x w & UNDIR w w] & UNDIR x u]]"
         " | UNDIR x [rev x]]"],
        ids=["under-a-loop", "closed", "inside-a-memoised-part"],
    )
    def test_a_part_that_occurs_twice(self, text):
        f = parse_formula(text)
        _assert_scan_agrees(f)
        goal = parse_formula("(Ax)UNDIR x [rev x]")
        for premises, goal in (([], f), ([f], goal)):
            assert find_countermodel(premises, goal, 2) == _first_by_eval(premises, goal, 2)

    @staticmethod
    def _at_the_node_bound():
        # (Ax0) over 196 &/| junctions, | on top so that the quantifier
        # stays above them in the plan: height 200, the most a node may have
        f = Atom("UNDIR", (_x(0), _rev(_x(0))))
        for i in range(196):
            f = (Or if i % 2 else And)(Atom("UNDIR", (_x(0), _x(0))), f)
        return Forall("x0", f)

    def test_brackets_at_the_node_bound(self, monkeypatch):
        # the loop body nests 198 brackets, all the bound allows
        f = self._at_the_node_bound()
        assert f.height == 200 and _plan(f, True) is f
        sources = []
        monkeypatch.setattr(models, "exec", lambda source, ns: (sources.append(source), exec(source, ns)),
                            raising=False)
        _Compiler(f)
        depths = itertools.accumulate((c in "([") - (c in ")]") for c in sources[0])
        assert max(depths) == 198
        monkeypatch.undo()
        # as _assert_scan_agrees, which would build ~f, a node past the bound
        for n in (1, 2):
            for rev in itertools.product(range(n), repeat=n):
                got = _Evaluator(n, rev, {})(f)
                for idx in range(2 ** (n * n)):
                    assert bool(got >> idx & 1) == eval_formula(_structure_from_index(n, rev, idx), f)
        goal = parse_formula("(Ax)UNDIR x x")
        assert find_countermodel([f], goal, 2) == _first_by_eval([f], goal, 2)

    def test_negative_plan_at_the_node_bound(self):
        # a negated atom of a plan is a node of the atom's height, so the
        # negative plan is 200 levels too and the formula can be refuted
        f = self._at_the_node_bound()
        assert _plan(f, False).height == 200
        assert find_countermodel([], f, 1) is not None
        for n in (1, 2):
            assert find_countermodel([], f, n) == _first_by_eval([], f, n)

    @pytest.mark.parametrize("k", [16, 40])
    @pytest.mark.parametrize("q", [Forall, Exists])
    @pytest.mark.parametrize("shape", ["doubled", "interleaved"])
    def test_shared_parts_are_walked_once(self, shape, q, k):
        # doubled: X(j+1) = X(j) & X(j), which the plan folds to its atom;
        # interleaved: X(j+1) = X(j) | Y(j) and Y(j+1) = X(j) & Y(j), whose
        # plan keeps q above a shared part with no rev term, which the
        # compiler's rev test walks.  Both are 2^k atoms as a tree.
        atom, other = Atom("UNDIR", (_x(0), _rev(_x(0)))), Atom("UNDIR", (_x(0), _x(0)))
        if shape == "doubled":
            f, same = functools.reduce(lambda f, _: And(f, f), range(k), atom), atom
        else:
            f, y = other, Not(other)
            for _ in range(k):
                f, y = Or(f, y), And(f, y)
            same = Or(other, Not(other))  # what X(k) is equivalent to
        f, same, goal = q("x0", f), q("x0", same), q("x0", Not(atom))
        start = time.perf_counter()
        got = [find_countermodel([], f, 2), find_countermodel([f], goal, 2)]
        assert time.perf_counter() - start < 1
        assert got == [find_countermodel([], same, 2), find_countermodel([same], goal, 2)]


class TestCountermodels:
    def test_w2_from_i5_i6(self):
        cm = find_countermodel([axiom("I5"), axiom("I6")], axiom("W2"), 4)
        assert cm == _struct(2, {(0, 1), (1, 0)}, rev=(0, 0))
        assert eval_formula(cm, axiom("I5")) and eval_formula(cm, axiom("I6"))
        assert not eval_formula(cm, axiom("W2"))

    def test_w3_from_i5_i6(self):
        cm = find_countermodel([axiom("I5"), axiom("I6")], axiom("W3"), 4)
        assert cm == _struct(3, {(0, 1), (1, 0), (1, 2), (2, 1)}, rev=(0, 0, 1))
        assert not eval_formula(cm, axiom("W3"))

    def test_involutive_size4_structure_also_refutes_w2(self):
        # a larger refutation with rev an involution; not the enumeration-first
        s = _struct(4, {(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)}, rev=(1, 0, 3, 2))
        assert eval_formula(s, axiom("I5")) and eval_formula(s, axiom("I6"))
        assert not eval_formula(s, axiom("W2"))

    def test_no_countermodels_for_proved_entailments(self):
        assert find_countermodel([axiom("I6")], axiom("W1"), 3) is None
        assert find_countermodel([axiom("I6")], axiom("W4"), 3) is None
        assert find_countermodel([axiom("I7"), axiom("I8"), axiom("ODO")], axiom("I6"), 3) is None
        assert find_countermodel([axiom("I5"), axiom("ODO")], axiom("OO"), 3) is None

    def test_empty_premises_size_one(self):
        cm = find_countermodel([], axiom("I5"), 1)
        assert cm == _struct(1, {(0, 0)}, rev=(0,))

    def test_open_formula_rejected(self):
        with pytest.raises(ValueError):
            find_countermodel([], parse_formula("UNDIR x y"), 2)

    def test_uninterpreted_predicate_rejected_by_both_evaluators(self):
        con = parse_formula("(Ax)(Ay)[CON x y -> CON x y]", GEOMETRY_WITH_DEFS)
        with pytest.raises(ValueError):
            eval_formula(INEQ2, con)
        with pytest.raises(ValueError):
            find_countermodel([], con, 2)

    @pytest.mark.parametrize(
        "predicates,functions,text",
        [
            ({"UNDIR": 3}, {}, "(Ax)(Ay)(Az)[UNDIR x y z | ~UNDIR x y x]"),
            ({}, {"rev": 2}, "(Ax)(Ay)[UNDIR x [rev x y] | ~UNDIR x [rev x x]]"),
        ],
        ids=["UNDIR/3", "rev/2"],
    )
    def test_wrong_arity_rejected_by_both_evaluators(self, predicates, functions, text):
        f = parse_formula(text, GEOMETRY.extended(predicates, functions))
        with pytest.raises(ValueError, match="does not interpret"):
            find_countermodel([], f, 2)
        with pytest.raises(ValueError, match="does not interpret"):
            equivalent_on_all(f, f, 2)
        with pytest.raises(ValueError, match="does not interpret"):
            eval_formula(INEQ2, f)

    def test_dir_opp_exclusion_follows_from_i8(self):
        claim = parse_formula("(Ax)(Ay)~[~UNDIR x y & ~UNDIR x [rev y]]")
        assert find_countermodel([axiom("I8")], claim, 3) is None
        assert find_countermodel([], claim, 2) is not None

    @pytest.mark.parametrize("size", [0, MAX_SIZE + 1])
    def test_sizes_outside_the_bound_rejected(self, size):
        with pytest.raises(ValueError, match=f"1..{MAX_SIZE}"):
            find_countermodel([axiom("I6")], axiom("W1"), size)
        with pytest.raises(ValueError, match=f"1..{MAX_SIZE}"):
            countermodel_at_size([axiom("I6")], axiom("W1"), size)
        with pytest.raises(ValueError, match=f"1..{MAX_SIZE}"):
            equivalent_on_all(axiom("I6"), axiom("W1"), size)
        with pytest.raises(ValueError, match=f"1..{MAX_SIZE}"):
            rev_representatives(size)

    def test_countermodel_at_size_matches_find_countermodel(self):
        premises, goal = [axiom("I5"), axiom("I6")], axiom("W3")
        whole = countermodel_at_size(premises, goal, 3)
        assert whole == find_countermodel(premises, goal, 3)
        assert countermodel_at_size(premises, goal, 2) is None


CATALOG = ("I5", "I6", "I7", "I8", "ODO", "W1", "W2", "W3", "W4", "OO")


def _conjugate(rev, s):
    """s o rev o s^-1: the rev table after relabelling each element d as s[d]."""
    out = [0] * len(rev)
    for d, r in enumerate(rev):
        out[s[d]] = s[r]
    return tuple(out)


def _every_rev_table(n):
    """(size, rev, evaluator) for all n^n rev tables of each size up to n,
    in the documented order: the scan before the symmetry reduction."""
    for size in range(1, n + 1):
        shared = {}
        for rev in itertools.product(range(size), repeat=size):
            yield size, rev, _Evaluator(size, rev, shared)


def _full_scan_countermodel(premises, goal, max_n):
    for n, rev, value in _every_rev_table(max_n):
        mask = ~value(goal)
        for p in premises:
            mask &= value(p)
        hits = [k for k in range(2 ** (n * n)) if mask >> k & 1]
        if hits:
            return _structure_from_index(n, rev, hits[0])
    return None


class TestRevRepresentatives:
    def test_class_counts(self):
        # OEIS A001372: maps [n] -> [n] up to relabelling
        assert [len(rev_representatives(n)) for n in range(1, 5)] == [1, 3, 7, 19]

    @pytest.mark.parametrize("n", range(1, MAX_SIZE + 1))
    def test_one_least_representative_per_class(self, n):
        perms = list(itertools.permutations(range(n)))
        reps = rev_representatives(n)
        assert list(reps) == sorted(reps)
        for rev in reps:
            assert rev == min(_conjugate(rev, s) for s in perms)
        for rev in itertools.product(range(n), repeat=n):
            conjugates = {_conjugate(rev, s) for s in perms}
            assert len(conjugates & set(reps)) == 1, rev

    @pytest.mark.parametrize("goal", CATALOG)
    def test_countermodels_match_the_full_scan(self, goal):
        for premises in [()] + [(p,) for p in CATALOG]:
            fs = [axiom(p) for p in premises]
            want = _full_scan_countermodel(fs, axiom(goal), 3)
            assert find_countermodel(fs, axiom(goal), 3) == want, (premises, goal)

    def test_equivalences_match_the_full_scan(self):
        pairs = [(axiom(f), axiom(g)) for f, g in itertools.combinations(CATALOG, 2)]
        pairs.append((axiom("I7"), build_and(w_decomposition())))
        pairs.append((axiom("I7"), expand_defs(axiom("I7conv"))))
        pairs += [(axiom(w), expand_defs(defined_form(w))) for w in ("W1", "W2", "W3", "W4")]
        verdicts = set()
        for f, g in pairs:
            want = all(value(f) == value(g) for _, _, value in _every_rev_table(2))
            assert equivalent_on_all(f, g, 2) == want, (f, g)
            verdicts.add(want)
        assert verdicts == {True, False}


class TestRecords:
    def test_roundtrip(self):
        s = _struct(3, {(0, 1), (2, 0)}, rev=(1, 2, 0))
        assert Structure.from_record(s.to_record()) == s

    @pytest.mark.parametrize(
        "record, field",
        [({"size": 2, "rev": [0, 5], "undir": [[0, 1]]}, "rev"),
         ({"size": 2, "rev": [0, 1], "undir": [[0, 7]]}, "undir"),
         ({"size": 0, "rev": [], "undir": []}, "size")],
        ids=["rev", "undir", "size"],
    )
    def test_out_of_range_record_is_a_value_error(self, record, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            Structure.from_record(record)

    def test_describe(self):
        s = _struct(2, {(0, 1)}, rev=(1, 0))
        assert s.describe() == "size=2 rev=[1 0] undir={(0,1)}"


class TestHelpers:
    def test_validity_is_no_countermodel(self):
        taut = parse_formula("UNDIR x x -> UNDIR x x")
        assert find_countermodel([], closed_up(taut), 2) is None
        assert find_countermodel([], axiom("I5"), 2) is not None

    def test_equivalent_on_all(self):
        f = parse_formula("(Ax)~UNDIR x x")
        g = parse_formula("~(Ex)UNDIR x x")
        assert equivalent_on_all(f, g, 3)
        assert not equivalent_on_all(axiom("I5"), axiom("I8"), 2)

    def test_equivalent_on_all_rejects_open_formulas(self):
        open_formula = parse_formula("UNDIR x y")
        for f, g in ((open_formula, axiom("I5")), (axiom("I5"), open_formula)):
            with pytest.raises(ValueError, match="formulas must be closed"):
                equivalent_on_all(f, g, 2)


class TestInterprets:
    def test_the_core_catalog_is_interpreted(self):
        assert interprets([axiom(n) for n in ("I5", "I6", "I7", "I8", "ODO", "W1", "OO")])
        assert interprets([expand_defs(axiom("I7conv"))]) and not interprets([axiom("I7conv")])
        assert interprets([])

    @pytest.mark.parametrize(
        "text, sig",
        [
            ("(Ax)(Ay)[CON x y -> UNDIR x y]", GEOMETRY_WITH_DEFS),
            ("(Ax)P x", GEOMETRY.extended({"P": 1})),
            ("(Ax)UNDIR x [f x]", GEOMETRY.extended({}, {"f": 1})),
            ("(Ax)UNDIR x x x", GEOMETRY.extended({"UNDIR": 3})),
            ("(Ax)(Ay)UNDIR x [rev x y]", GEOMETRY.extended({}, {"rev": 2})),
        ],
    )
    def test_other_symbols_and_arities_are_not(self, text, sig):
        f = parse_formula(text, sig)
        assert not interprets([f])
        assert not interprets([axiom("I5"), f])


class TestFingerprint:
    def test_answers_pinned(self):
        # Every 0/1-premise catalog sequent up to size 4, every 2-premise one
        # up to size 3, and the 45 catalog pairs' equivalence at size 3.  The
        # digest was taken with the numpy arrays that the int bitsets replaced.
        answers = []
        for goal in CATALOG:
            for premises in [()] + [(p,) for p in CATALOG]:
                answers.append(find_countermodel([axiom(p) for p in premises], axiom(goal), 4))
            for premises in itertools.combinations(CATALOG, 2):
                answers.append(find_countermodel([axiom(p) for p in premises], axiom(goal), 3))
        for f, g in itertools.combinations(CATALOG, 2):
            answers.append(equivalent_on_all(axiom(f), axiom(g), 3))
        assert len(answers) == 605
        text = "\n".join(map(repr, answers))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "b52e8979c2362d9a"
