import pytest

from dirgeo.geometry import (
    GEOMETRY_WITH_DEFS,
    UnknownAxiom,
    axiom,
    axiom_names,
    defined_form,
    expand_defs,
    w_decomposition,
)
from dirgeo.models import equivalent_on_all, eval_formula
from dirgeo.syntax import (
    Atom,
    Var,
    build_and,
    free_vars,
    parse_formula,
    print_formula,
)
from helpers import alpha_eq, direction_circle


class TestCatalog:
    def test_names(self):
        assert set(axiom_names()) == {
            "I5", "I6", "I7", "I7conv", "I8", "ODO", "W1", "W2", "W3", "W4", "OO",
        }

    def test_i8(self):
        assert axiom("I8") == parse_formula("(Ax)(Ay)[UNDIR x y | UNDIR x [rev y]]")

    def test_w4(self):
        assert axiom("W4") == parse_formula(
            "(Ax)(Ay)(Az)[[[~UNDIR x y | ~UNDIR x [rev y]] | UNDIR x [rev z]] | UNDIR y [rev z]]"
        )

    def test_oo(self):
        assert axiom("OO") == parse_formula("(Ax)(Ay)[UNDIR x [rev y] -> UNDIR y [rev x]]")

    def test_odo(self):
        assert axiom("ODO") == parse_formula(
            "(Ax)(Ay)(Az)[~UNDIR x [rev y] & ~UNDIR x z -> ~UNDIR y [rev z]]"
        )

    def test_unknown_name(self):
        with pytest.raises(UnknownAxiom):
            axiom("I9")

    def test_all_entries_closed_and_roundtrip(self):
        for name in axiom_names():
            f = axiom(name)
            assert not free_vars(f)
            assert parse_formula(print_formula(f), GEOMETRY_WITH_DEFS) == f


class TestExpandDefs:
    def test_con_form_gives_i7(self):
        assert expand_defs(axiom("I7conv")) == axiom("I7")
        assert alpha_eq(expand_defs(axiom("I7conv")), axiom("I7"))

    def test_odo_defined_form(self):
        got = expand_defs(defined_form("ODO"))
        assert got == parse_formula(
            "(Ax)(Ay)(Az)[~UNDIR x [rev y] & ~UNDIR x z -> ~UNDIR y [rev z]]"
        )

    def test_idempotent_on_core(self):
        f = parse_formula("UNDIR x y")
        assert expand_defs(f) == f
        assert expand_defs(axiom("I7")) == axiom("I7")

    def test_inopp(self):
        f = parse_formula("INOPP l m", GEOMETRY_WITH_DEFS)
        assert expand_defs(f) == parse_formula("UNDIR l [rev m]")

    def test_arity_mismatch(self):
        bad = Atom("DIR", (Var("x"),))
        with pytest.raises(ValueError):
            expand_defs(bad)


class TestWDecomposition:
    def test_order(self):
        ws = w_decomposition()
        assert ws == [axiom("W1"), axiom("W2"), axiom("W3"), axiom("W4")]

    def test_conjunction_equivalent_to_i7_small(self):
        assert equivalent_on_all(axiom("I7"), build_and(w_decomposition()), 3)

    def test_direction_circle_case(self):
        dc = direction_circle(4)
        assert eval_formula(dc, axiom("I7")) == eval_formula(dc, build_and(w_decomposition()))

    def test_two_direction_case(self):
        # two directions, rev = swap, unequally directed iff distinct
        two = direction_circle(2)
        assert eval_formula(two, axiom("I7")) is True
        assert eval_formula(two, build_and(w_decomposition())) is True

    def test_defined_forms_cover_w_family(self):
        for name in ("W1", "W2", "W3", "W4"):
            assert equivalent_on_all(axiom(name), expand_defs(defined_form(name)), 3)
