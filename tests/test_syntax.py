import copy
import gc
import hashlib
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from dirgeo.corpus import corpus_ids, load
from dirgeo.geometry import axiom, axiom_names, expand_defs
from dirgeo.kernel import Justification, Proof, ProofLine, Rule, check_proof
from dirgeo.models import direction_circle, equivalent_on_all, eval_formula
from dirgeo.syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    GEOMETRY,
    Implies,
    NestingError,
    Not,
    Or,
    ParseError,
    Signature,
    Term,
    Var,
    _CACHE_SIZE,
    _NODES,
    _canon,
    _subst,
    _subst_one,
    alpha_eq,
    bound_vars,
    build_or,
    canonical_key,
    contradiction_keys,
    de_morgan,
    flatten_and,
    flatten_or,
    free_vars,
    match,
    negated_quantifier_view,
    parse_annotation_term,
    parse_formula,
    parse_term,
    print_annotation_term,
    print_formula,
    print_term,
    rule_eq,
    substitute,
    substitute_term,
    term_vars,
)
from helpers import VARS, alpha_variant, closed_up, random_formula, random_term


def U(a, b):
    return Atom("UNDIR", (a, b))


x, y, z = Var("x"), Var("y"), Var("z")
v1, v2, v3 = Var("v1"), Var("v2"), Var("v3")


class TestTerms:
    def test_variable(self):
        assert parse_term("v1") == Var("v1")

    def test_rev_application(self):
        assert parse_term("[rev v2]") == App("rev", (Var("v2"),))

    def test_nested_rev(self):
        t = parse_term("[rev [rev [rev v3]]]")
        assert t == App("rev", (App("rev", (App("rev", (Var("v3"),)),)),))

    def test_roundtrip(self):
        for src in ("v1", "[rev v2]", "[rev [rev [rev v3]]]"):
            assert print_term(parse_term(src)) == src

    def test_unknown_function(self):
        with pytest.raises(ParseError) as err:
            parse_term("[foo v1]")
        assert "foo" in str(err.value) and "offset" in str(err.value)

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_term("[rev v1 v2]")

    def test_unbalanced_brackets(self):
        with pytest.raises(ParseError) as err:
            parse_term("[rev v1")
        assert err.value.offset == 7

    def test_annotation_call_syntax(self):
        assert parse_annotation_term("rev(rev(v3))") == parse_term("[rev [rev v3]]")
        assert parse_annotation_term("[rev v2]") == parse_term("[rev v2]")
        assert parse_annotation_term("v9") == Var("v9")


class TestParseFormula:
    def test_axiom_i5_shape(self):
        assert parse_formula("(Ax)~UNDIR x x") == Forall("x", Not(U(x, x)))

    def test_axiom_i6_shape(self):
        f = parse_formula("(Ax)(Ay)[UNDIR x y -> (Az)[UNDIR x z | UNDIR y z]]")
        assert f == Forall(
            "x", Forall("y", Implies(U(x, y), Forall("z", Or(U(x, z), U(y, z)))))
        )

    def test_and_binds_tighter_than_or(self):
        f = parse_formula("UNDIR v1 v3 & UNDIR v1 [rev v3] | UNDIR v2 v3")
        assert isinstance(f, Or) and isinstance(f.left, And)
        g = parse_formula("UNDIR x x & UNDIR x y | UNDIR y y & UNDIR y x")
        assert isinstance(g, Or) and isinstance(g.left, And) and isinstance(g.right, And)

    def test_arrow_right_associative(self):
        f = parse_formula("UNDIR x x -> UNDIR x y -> UNDIR y y")
        assert isinstance(f, Implies) and isinstance(f.right, Implies)

    def test_quantifier_binds_tightly(self):
        f = parse_formula("(Ex)UNDIR x x | UNDIR v1 v2")
        assert isinstance(f, Or) and isinstance(f.left, Exists)

    def test_unicode_aliases(self):
        assert parse_formula("(∀x)∼UNDIR x x") == parse_formula("(Ax)~UNDIR x x")
        assert parse_formula("(∃x)UNDIR x x") == parse_formula("(Ex)UNDIR x x")

    @pytest.mark.parametrize("src, names", [("UNDIR forall eof", ("forall", "eof")),
                                            ("UNDIR name x", ("name", "x"))])
    def test_token_words_are_plain_variables(self, src, names):
        assert parse_formula(src) is U(*map(Var, names))

    @pytest.mark.parametrize("word", ["forall", "exists"])
    def test_quantifier_words_are_not_quantifiers(self, word):
        with pytest.raises(ParseError) as err:
            parse_formula(f"({word} x)UNDIR x x")
        assert str(err.value) == (
            f"expected a quantifier like (Ax) or (Ex), found ({word} (at offset 1)"
        )

    @pytest.mark.parametrize("src", ["(∀x)UNDIR x x", "(∀ x)UNDIR x x"])
    def test_quantifier_symbol_with_or_without_a_space(self, src):
        assert parse_formula(src) is Forall("x", U(x, x))

    def test_case_insensitive_predicates(self):
        assert parse_formula("Undir x y") == parse_formula("UNDIR x y")

    def test_signature_keys_in_any_case(self):
        sig = Signature(predicates={"undir": 2, "Con": 2}, functions={"REV": 1})
        assert (sig.predicates, sig.functions) == ({"UNDIR": 2, "CON": 2}, {"rev": 1})
        assert parse_formula("UNDIR x [Rev y] & con y x", sig) == And(
            U(x, App("rev", (y,))), Atom("CON", (y, x))
        )
        wider = sig.extended(predicates={"dir": 2}, functions={"Mid": 2})
        assert (wider.predicates, wider.functions) == (
            {"UNDIR": 2, "CON": 2, "DIR": 2}, {"rev": 1, "mid": 2}
        )
        assert parse_formula("Dir x [MID x y]", wider) == Atom("DIR", (x, App("mid", (x, y))))

    def test_signature_is_read_only_and_hashable(self):
        with pytest.raises(TypeError):
            GEOMETRY.predicates["FOO"] = 1
        with pytest.raises(ParseError):
            parse_formula("FOO x")
        same = Signature(predicates={"undir": 2}, functions={"REV": 1})
        assert same == GEOMETRY and hash(same) == hash(GEOMETRY)
        assert {GEOMETRY: 1}[same] == 1
        assert pickle.loads(pickle.dumps(GEOMETRY)) == GEOMETRY == copy.deepcopy(GEOMETRY)

    def test_term_bracket_in_formula_position_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_formula("[rev v1]")
        assert "formula" in str(err.value)

    def test_unknown_predicate(self):
        with pytest.raises(ParseError):
            parse_formula("BETWEEN x y")

    @pytest.mark.parametrize(
        "src, offset",
        [
            ("UNDIR x y → foo", 12),
            ("UNDIR x y ⟶ foo", 12),
            ("(∀x)foo x", 4),
            ("(∀x)¬UNDIR x x ∧ foo", 17),
            ("UNDIR x y →", 11),
        ],
    )
    def test_offsets_count_characters_of_the_input(self, src, offset):
        with pytest.raises(ParseError) as err:
            parse_formula(src)
        assert err.value.offset == offset


# Malformed inputs that single-character edits of the corpus do not reach.
_EXTRA_MALFORMED = [
    (parse_formula, "UNDIR x x &[rev y]"),
    (parse_annotation_term, "rev(x, y)"),
    (parse_annotation_term, "rev()"),
    (parse_term, "[rev x"),
    (parse_term, "rev"),
]


def _malformed_inputs():
    """Seeded single-character deletions and insertions (ASCII only) over
    the corpus formulas and annotation terms."""
    proofs = [load(cid)[0] for cid in corpus_ids()]
    formulas = sorted(
        {print_formula(f) for p in proofs for f in [*p.premises, *(l.formula for l in p.lines)]}
    )
    annots = sorted({print_annotation_term(t) for p in proofs for l in p.lines for t, _ in l.just.annot})
    rng = random.Random(7)
    alphabet = "~&|-()[],> xAEv1rU$"
    out = []
    for parse, texts in ((parse_formula, formulas), (parse_annotation_term, annots)):
        for s in texts:
            for _ in range(6):
                i = rng.randrange(len(s))
                out.append((parse, s[:i] + s[i + 1:]))
                i = rng.randrange(len(s) + 1)
                out.append((parse, s[:i] + rng.choice(alphabet) + s[i:]))
    return out + _EXTRA_MALFORMED


class TestParseErrorFingerprint:
    def test_messages_and_offsets_pinned(self):
        # 1,661 inputs; 1,348 of them are rejected.  The digest covers each
        # input with its AST or its (message, offset).
        inputs = _malformed_inputs()
        digest = hashlib.sha256()
        rejected = 0
        for parse, src in inputs:
            try:
                got = repr(parse(src))
            except ParseError as exc:
                got = f"{exc}|{exc.offset}"
                rejected += 1
            digest.update(f"{parse.__name__}\t{src}\t{got}\n".encode())
        assert (len(inputs), rejected) == (1661, 1348)
        assert digest.hexdigest()[:16] == "17efd97ee7025379"


_NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}", fullmatch=True).filter(lambda s: s.lower() != "rev")


def _revs(name: str, depth: int) -> Term:
    t: Term = Var(name)
    for _ in range(depth):
        t = App("rev", (t,))
    return t


_TERMS = st.builds(_revs, _NAMES, st.integers(0, 3) | st.integers(0, 60))
_FORMULAS = st.recursive(
    st.builds(lambda a, b: Atom("UNDIR", (a, b)), _TERMS, _TERMS),
    lambda sub: st.builds(Not, sub)
    | st.builds(And, sub, sub)
    | st.builds(Or, sub, sub)
    | st.builds(Implies, sub, sub)
    | st.builds(Forall, _NAMES, sub)
    | st.builds(Exists, _NAMES, sub),
    max_leaves=12,
)
_SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# Each operator once with its ASCII spelling replaced by a Unicode alias.
_ALIAS_SPELLINGS = [
    (("(A", "(∀"), ("(E", "(∃"), ("~", "¬"), ("&", "∧"), ("|", "∨"), ("->", "→")),
    (("(A", "(∀ "), ("(E", "(∃ "), ("~", "∼"), ("&", " ∧ "), ("|", "∨"), ("->", "⟶")),
]


class TestParseProperties:
    @_SETTINGS
    @given(_FORMULAS)
    def test_print_parse_roundtrip(self, f):
        assert parse_formula(print_formula(f)) == f

    @_SETTINGS
    @given(_FORMULAS, st.sampled_from(_ALIAS_SPELLINGS))
    def test_unicode_aliases_parse_to_the_same_ast(self, f, spelling):
        src = print_formula(f)
        for ascii_op, alias in spelling:
            src = src.replace(ascii_op, alias)
        assert parse_formula(src) == f


class TestPrintFormula:
    def test_i5(self):
        assert print_formula(Forall("x", Not(U(x, x)))) == "(Ax)~UNDIR x x"

    def test_atom_with_rev(self):
        f = U(v1, App("rev", (v2,)))
        assert print_formula(f) == "UNDIR v1 [rev v2]"

    def test_double_negation_not_simplified(self):
        assert print_formula(Not(Not(U(x, y)))) == "~~UNDIR x y"

    def test_minimal_bracketing(self):
        assert print_formula(Or(And(U(x, x), U(x, y)), U(y, y))) == "UNDIR x x & UNDIR x y | UNDIR y y"
        assert print_formula(And(Or(U(x, x), U(x, y)), U(y, y))) == "[UNDIR x x | UNDIR x y] & UNDIR y y"
        assert print_formula(Or(U(x, x), Or(U(x, y), U(y, y)))) == "UNDIR x x | [UNDIR x y | UNDIR y y]"

    @pytest.mark.parametrize("seed", range(60))
    def test_roundtrip_random(self, seed):
        f = random_formula(random.Random(seed))
        assert parse_formula(print_formula(f)) == f

    def test_roundtrip_catalog(self):
        for name in axiom_names():
            f = axiom(name)
            assert parse_formula(print_formula(f), signature=_defsig()) == f

    def test_roundtrip_corpus_lines(self):
        for cid in corpus_ids():
            proof, _ = load(cid)
            for line in proof.lines:
                assert parse_formula(print_formula(line.formula)) == line.formula


def _defsig():
    from dirgeo.geometry import GEOMETRY_WITH_DEFS

    return GEOMETRY_WITH_DEFS


class TestSubstitute:
    def test_simultaneous(self):
        f = parse_formula("UNDIR v5 [rev v6]")
        got = substitute(f, {"v5": v1, "v6": v2})
        assert got == parse_formula("UNDIR v1 [rev v2]")

    def test_bound_variable_shielded(self):
        f = parse_formula("(Az)UNDIR x z")
        assert substitute(f, {"z": Var("v9")}) == f

    def test_free_occurrences_only(self):
        f = parse_formula("UNDIR v4 [rev v1] | UNDIR v4 v2")
        got = substitute(f, {"v4": v2})
        assert got == parse_formula("UNDIR v2 [rev v1] | UNDIR v2 v2")

    def test_capture_avoided(self):
        f = Forall("z", U(x, z))
        got = substitute(f, {"x": z})
        assert isinstance(got, Forall) and got.var != "z"
        assert alpha_eq(got, Forall("w", U(z, Var("w"))))

    @pytest.mark.parametrize("seed", range(40))
    def test_composition(self, seed):
        rng = random.Random(1000 + seed)
        f = random_formula(rng)
        xv, yv = rng.sample(VARS, 2)
        t = random_term(rng, VARS)
        s = random_term(rng, [v for v in VARS if v != xv])
        lhs = substitute(substitute(f, {xv: t}), {yv: s})
        rhs = substitute(f, {xv: substitute_term(t, {yv: s}), yv: s})
        assert alpha_eq(lhs, rhs)


class TestAlphaEq:
    def test_bound_rename(self):
        assert alpha_eq(parse_formula("(Ax)~UNDIR x x"), parse_formula("(Av)~UNDIR v v"))

    def test_quantifier_order_matters(self):
        f = parse_formula("(Ax)(Ay)UNDIR x y")
        g = parse_formula("(Ay)(Ax)UNDIR x y")
        assert not alpha_eq(f, g)

    def test_free_variables_must_match(self):
        assert not alpha_eq(parse_formula("UNDIR v1 v2"), parse_formula("UNDIR v2 v1"))

    @pytest.mark.parametrize("seed", range(30))
    def test_equivalence_relation(self, seed):
        rng = random.Random(2000 + seed)
        f = random_formula(rng, depth=6)
        g = alpha_variant(rng, f)
        h = alpha_variant(rng, g)
        assert alpha_eq(f, f)
        assert alpha_eq(f, g) and alpha_eq(g, f)
        assert alpha_eq(g, h) and alpha_eq(f, h)


def _rename_binder(f, k: int, new: str):
    """f with its k-th binder (preorder) and the occurrences it binds renamed
    to `new`, capturing any free `new` below it."""
    seen = [0]

    def term(t, old, new):
        if isinstance(t, Var):
            return Var(new) if t.name == old else t
        return App(t.fn, tuple(term(a, old, new) for a in t.args))

    def rebind(g, old, new):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(term(a, old, new) for a in g.args))
        if isinstance(g, Not):
            return Not(rebind(g.body, old, new))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(rebind(g.left, old, new), rebind(g.right, old, new))
        return g if g.var == old else type(g)(g.var, rebind(g.body, old, new))

    def walk(g):
        if isinstance(g, Atom):
            return g
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(walk(g.left), walk(g.right))
        seen[0] += 1
        if seen[0] - 1 == k:
            return type(g)(new, rebind(g.body, g.var, new))
        return type(g)(g.var, walk(g.body))

    return walk(f)


def _count_binders(f) -> int:
    if isinstance(f, Atom):
        return 0
    if isinstance(f, (And, Or, Implies)):
        return _count_binders(f.left) + _count_binders(f.right)
    return isinstance(f, (Forall, Exists)) + _count_binders(f.body)


# alpha_eq gives False on each: a shadowing binder, a free variable against
# a bound one of the same name, and a free x against a bound y (a term that,
# with x eligible for matching, the target's binder would capture).
_ALPHA_SHAPES = [
    ("(Ax)(Ay)UNDIR x y", "(Ax)(Ax)UNDIR x x"),
    ("(Ay)UNDIR z y", "(Az)UNDIR z z"),
    ("(Ay)UNDIR x y", "(Ay)UNDIR y y"),
]


class TestAlphaEqFingerprint:
    def test_verdicts_pinned(self):
        # 400 seeded formulas f, each against an alpha variant, another
        # random formula, and (when f has a binder and a free variable) f
        # with one binder renamed to a name free in f.  The digest covers
        # each pair with its verdict.
        rng = random.Random(1800)
        pairs = [(parse_formula(a), parse_formula(b)) for a, b in _ALPHA_SHAPES]
        for _ in range(400):
            f = random_formula(rng)
            pairs.append((f, alpha_variant(rng, f)))
            pairs.append((f, random_formula(rng)))
            binders = _count_binders(f)
            names = sorted(free_vars(f))
            if binders and names:
                pairs.append((f, _rename_binder(f, rng.randrange(binders), rng.choice(names))))
        digest = hashlib.sha256()
        equal = 0
        for f, g in pairs:
            verdict = alpha_eq(f, g)
            equal += verdict
            digest.update(f"{print_formula(f)}\t{print_formula(g)}\t{verdict}\n".encode())
        assert (len(pairs), equal) == (1057, 494)
        assert digest.hexdigest()[:16] == "0ba9a2ee6149bff2"


def _scramble(rng, f, pool):
    """f with about a third of its variable occurrences and binder names
    redrawn from pool, free or bound alike: mostly near misses of f."""
    def name(old):
        return rng.choice(pool) if rng.random() < 0.3 else old

    def term(t):
        return Var(name(t.name)) if isinstance(t, Var) else App(t.fn, tuple(map(term, t.args)))

    if isinstance(f, Atom):
        return Atom(f.pred, tuple(map(term, f.args)))
    if isinstance(f, Not):
        return Not(_scramble(rng, f.body, pool))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_scramble(rng, f.left, pool), _scramble(rng, f.right, pool))
    return type(f)(name(f.var), _scramble(rng, f.body, pool))


class TestMatch:
    @pytest.mark.parametrize("pattern, target, eligible", [(a, b, ()) for a, b in _ALPHA_SHAPES[:2]]
                             + [(*_ALPHA_SHAPES[2], ("x",))], ids=["shadowing", "free-bound", "capture"])
    def test_binder_shapes_do_not_match(self, pattern, target, eligible):
        assert match(parse_formula(pattern), parse_formula(target), frozenset(eligible)) is None

    def test_binds_under_renamed_binders(self):
        got = match(parse_formula("(Ay)UNDIR x y"), parse_formula("(Aw)UNDIR [rev z] w"), frozenset({"x"}))
        assert got == {"x": App("rev", (z,))}

    def test_one_term_per_variable(self):
        p = parse_formula("UNDIR x x")
        assert match(p, parse_formula("UNDIR y y"), frozenset({"x"})) == {"x": y}
        assert match(p, parse_formula("UNDIR y z"), frozenset({"x"})) is None

    def test_absent_eligible_variable_is_not_bound(self):
        assert match(parse_formula("(Ax)UNDIR x z"), parse_formula("(Ay)UNDIR y z"), frozenset({"x", "v1"})) == {}

    def test_seeded_completeness_and_soundness(self):
        # Completeness: a substitution instance of p matches p with the
        # substituted terms, also up to bound names.  Soundness, checked with
        # rule_eq: whatever binding comes back makes p the target.
        rng = random.Random(18)
        hits = 0
        for _ in range(1500):
            p = random_formula(rng)
            eligible = frozenset(v for v in VARS if rng.random() < 0.5)
            bindings = {v: random_term(rng, VARS) for v in eligible}
            want = {v: t for v, t in bindings.items() if v in free_vars(p)}
            t = substitute(p, bindings)
            assert match(p, t, eligible) == want
            assert match(p, alpha_variant(rng, t), eligible) == want
            p = random_formula(rng, ["x", "y", "z"], 3)
            t = _scramble(rng, p, ["x", "y", "z"])
            got = match(p, t, frozenset({"x"}))
            if got is not None:
                hits += 1
                assert rule_eq(substitute(p, got), t)
        assert hits == 590


class TestNegatedQuantifierView:
    def test_negated_exists(self):
        f = parse_formula("~(Ex)UNDIR x x")
        assert negated_quantifier_view(f) == parse_formula("(Ax)~UNDIR x x")

    def test_negated_forall(self):
        f = parse_formula("~(Ax)UNDIR x x")
        assert negated_quantifier_view(f) == parse_formula("(Ex)~UNDIR x x")

    def test_identity_elsewhere(self):
        f = parse_formula("UNDIR v1 v2")
        assert negated_quantifier_view(f) is f

    @pytest.mark.parametrize("seed", range(12))
    def test_truth_preserved_on_small_structures(self, seed):
        rng = random.Random(3000 + seed)
        body = random_formula(rng, pool=["u"], depth=3)
        for shape in (Not(Exists("u", body)), Not(Forall("u", body))):
            f = closed_up(shape)
            g = closed_up(negated_quantifier_view(shape))
            assert equivalent_on_all(f, g, 3)


class TestRuleEq:
    def test_or_reassociation(self):
        f = parse_formula("[UNDIR x x | UNDIR x y] | UNDIR y y")
        g = parse_formula("UNDIR x x | [UNDIR x y | UNDIR y y]")
        assert f != g and rule_eq(f, g)

    def test_and_commutation(self):
        assert rule_eq(parse_formula("UNDIR x x & UNDIR y y"), parse_formula("UNDIR y y & UNDIR x x"))

    def test_nqv_identified(self):
        assert rule_eq(parse_formula("~(Ex)UNDIR x x"), parse_formula("(Ax)~UNDIR x x"))

    def test_double_negation_not_identified(self):
        assert not rule_eq(parse_formula("~~UNDIR x y"), parse_formula("UNDIR x y"))

    def test_duplicates_are_multiset(self):
        f = parse_formula("UNDIR x x | [UNDIR x x | UNDIR y y]")
        g = parse_formula("UNDIR x x | UNDIR y y")
        assert not rule_eq(f, g)

    def test_free_vars_disjoint_views(self):
        f = parse_formula("(Az)[UNDIR x z | UNDIR y z]")
        assert free_vars(f) == {"x", "y"}
        assert canonical_key(f) == canonical_key(parse_formula("(Aw)[UNDIR x w | UNDIR y w]"))

    @pytest.mark.parametrize("cached", [free_vars, canonical_key], ids=["free_vars", "canonical_key"])
    def test_caches_are_bounded(self, cached):
        assert cached.cache_info().maxsize is not None

    def test_de_morgan_of_a_negated_disjunction(self):
        f = parse_formula("~[~UNDIR x x | UNDIR x y]")
        assert de_morgan(f) == parse_formula("UNDIR x x & ~UNDIR x y")

    def test_triple_negation_contradicts_its_atom(self):
        t = parse_formula("UNDIR x y")
        assert contradiction_keys(Not(Not(Not(t)))) == (
            canonical_key(Not(Not(Not(Not(t))))), canonical_key(Not(Not(t))), canonical_key(t)
        )


# Six shapes of the node bound's height, 200 levels: a variable is one level
# and each term, atom, connective and quantifier adds one.
_A = U(x, x)
_TALLEST = {
    "or-chain": build_or([_A] * 199),
    "and-chain": reduce(And, [_A] * 199),
    "not-prefix": reduce(lambda f, _: Not(f), range(198), _A),
    "forall-prefix": reduce(lambda f, _: Forall("x", f), range(198), _A),
    "arrow-chain": reduce(lambda f, _: Implies(_A, f), range(198), _A),
    "rev-term": U(x, reduce(lambda t, _: App("rev", (t,)), range(198), x)),
}

_WALKERS = {
    "print_formula": print_formula,
    "canonical_key": canonical_key,
    "free_vars": free_vars,
    "bound_vars": bound_vars,
    "substitute": lambda f: substitute(f, {"x": y}),
    "alpha_eq": lambda f: alpha_eq(f, f),
    "expand_defs": expand_defs,
    "eval_formula": lambda f: eval_formula(direction_circle(), f, {"x": 0}),
    "check_proof": lambda f: check_proof(Proof([f], [ProofLine(1, f, Justification(Rule.PREMISE))])),
}


class TestNesting:
    """One nesting bound, the height every node stores: text may nest 100
    levels, a node 200."""

    def test_heights(self):
        assert (x.height, App("rev", (x,)).height, _A.height, Not(_A).height) == (1, 2, 2, 3)
        assert Implies(Not(_A), _A).height == Forall("x", Not(_A)).height == 4
        assert parse_formula("[[[UNDIR x x]]]").height == 2  # brackets add none

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_text_chain_bound(self, op):
        assert parse_formula(f" {op} ".join(["UNDIR x x"] * 99)).height == 100
        with pytest.raises(ParseError, match="formula nested too deeply") as err:
            parse_formula(f" {op} ".join(["UNDIR x x"] * 100))
        assert err.value.offset == 1186  # the 99th operator

    def test_text_chain_bound_counts_the_levels_above(self):
        # under a quantifier and a bracket, a chain has two levels fewer
        assert parse_formula("(Ax)[" + " & ".join(["UNDIR x x"] * 97) + "]").height == 99
        with pytest.raises(ParseError, match="formula nested too deeply") as err:
            parse_formula("(Ax)[" + " & ".join(["UNDIR x x"] * 98) + "]")
        assert err.value.offset == 1167  # the 97th &

    def test_text_prefix_bound(self):
        assert parse_formula("~" * 98 + "UNDIR x x").height == 100
        with pytest.raises(ParseError, match="formula nested too deeply") as err:
            parse_formula("~" * 99 + "UNDIR x x")
        assert err.value.offset == 105  # the first term

    def test_node_bound(self):
        with pytest.raises(NestingError, match="^formula nested too deeply$"):
            build_or([_A] * 2000)
        assert issubclass(NestingError, ValueError)
        with pytest.raises(NestingError):
            Not(_TALLEST["not-prefix"])
        with pytest.raises(NestingError):
            U(x, App("rev", (_TALLEST["rev-term"].args[1],)))

    @pytest.mark.parametrize("walker", _WALKERS)
    @pytest.mark.parametrize("shape", _TALLEST)
    def test_walkers_take_the_tallest_nodes(self, shape, walker):
        f = _TALLEST[shape]
        assert f.height == 200
        _WALKERS[walker](f)


class TestHashConsing:
    def test_equal_parses_are_one_object(self):
        src = "(Ax)[UNDIR x [rev y] | ~UNDIR y x]"
        assert parse_formula(src) is parse_formula(src)
        assert parse_term("[rev [rev v1]]") is App("rev", (App("rev", (v1,)),))

    @pytest.mark.parametrize("roundtrip", [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_the_same_object(self, roundtrip):
        f = parse_formula("(Ax)(Ey)[UNDIR x [rev y] -> ~UNDIR y x]")
        assert roundtrip(f) is f

    def test_fields_cannot_be_assigned(self):
        f = parse_formula("(Ax)UNDIR x x")
        with pytest.raises(FrozenInstanceError):
            f.var = "y"
        with pytest.raises(FrozenInstanceError):
            del f.body
        assert print_formula(f) == "(Ax)UNDIR x x"

    def test_unreferenced_nodes_leave_the_table(self):
        gc.collect()
        before = len(_NODES)
        f = Not(U(Var("unreferencedA"), App("rev", (Var("unreferencedB"),))))
        assert len(_NODES) == before + 5
        del f
        gc.collect()
        assert len(_NODES) == before

    @pytest.mark.parametrize("seed", range(40))
    def test_memoised_substitute_matches_the_uncached_walk(self, seed):
        rng = random.Random(4000 + seed)
        f = random_formula(rng)
        var = rng.choice(VARS)
        t = random_term(rng, VARS)
        assert substitute(f, {var: t}) is _subst(f, {var: t})
        assert substitute(f, {var: t}) is _subst(f, {var: t})  # now from the memo

    def test_substitution_memo_is_bounded(self):
        assert _subst_one.cache_info().maxsize == _CACHE_SIZE


def _reorder(rng: random.Random, f):
    """f with the operands of every & and | chain shuffled and re-bracketed."""
    if isinstance(f, (And, Or)):
        parts = flatten_and(f) if isinstance(f, And) else flatten_or(f)
        parts = [_reorder(rng, p) for p in parts]
        rng.shuffle(parts)
        return _bracket(rng, type(f), parts)
    if isinstance(f, Not):
        return Not(_reorder(rng, f.body))
    if isinstance(f, Implies):
        return Implies(_reorder(rng, f.left), _reorder(rng, f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, _reorder(rng, f.body))
    return f


def _bracket(rng: random.Random, cls, parts):
    if len(parts) == 1:
        return parts[0]
    k = rng.randrange(1, len(parts))
    return cls(_bracket(rng, cls, parts[:k]), _bracket(rng, cls, parts[k:]))


class TestInternedKeys:
    """canonical_key returns an interned key: equal keys are one object."""

    @pytest.mark.parametrize("seed", range(40))
    def test_one_object_iff_equal_canonical_forms(self, seed):
        rng = random.Random(6000 + seed)
        f = random_formula(rng, depth=rng.randrange(1, 4))
        others = [alpha_variant(rng, f), _reorder(rng, f), _reorder(rng, alpha_variant(rng, f)), Not(f)]
        others += [random_formula(rng, depth=rng.randrange(0, 3)) for _ in range(8)]
        for g in others:
            assert (canonical_key(f) is canonical_key(g)) == (_canon(f, ()) == _canon(g, ())), (f, g)
        assert all(canonical_key(g) is canonical_key(f) for g in others[:3])

    def test_a_key_dies_with_its_formulas(self):
        gc.collect()
        before = len(_NODES)
        f = U(Var("unreferencedKeyA"), Var("unreferencedKeyB"))
        key = canonical_key(f)
        assert len(_NODES) == before + 4  # two variables, the atom and its key
        dead, entry = weakref.ref(key), (type(key), key.canon)
        canonical_key.cache_clear()  # which drops the other keys it kept, too
        del f, key
        gc.collect()
        assert dead() is None and entry not in _NODES and len(_NODES) <= before

    @pytest.mark.parametrize("roundtrip", [lambda k: pickle.loads(pickle.dumps(k)), copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_the_same_key(self, roundtrip):
        key = canonical_key(parse_formula("(Ax)(Ey)[UNDIR x [rev y] & ~UNDIR y x | UNDIR z z]"))
        assert roundtrip(key) is key


class TestSubstituteAndKeyProperties:
    @_SETTINGS
    @given(_FORMULAS, _TERMS, st.data())
    def test_substitute_avoids_capture(self, f, t, data):
        assume(free_vars(f))
        var = data.draw(st.sampled_from(sorted(free_vars(f))))
        assert free_vars(substitute(f, {var: t})) == (free_vars(f) - {var}) | term_vars(t)

    @_SETTINGS
    @given(_FORMULAS, st.randoms(use_true_random=False))
    def test_canonical_key_ignores_alpha_renaming(self, f, rng):
        assert canonical_key(alpha_variant(rng, f)) == canonical_key(f)

    @_SETTINGS
    @given(_FORMULAS, st.randoms(use_true_random=False))
    def test_canonical_key_ignores_and_or_order(self, f, rng):
        assert canonical_key(_reorder(rng, f)) == canonical_key(f)
