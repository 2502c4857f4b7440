"""The axiom catalog and the definitional layer (CON, DIR, OPP, INOPP).

Axioms live in data/catalog.txt as source text in the module grammar; the
defined relations rewrite between the UNDIR-only core the kernel uses and
the human-readable forms.  Library callers expand with expand_defs; the
CLI expands every axiom name it resolves.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Formula,
    GEOMETRY_WITH_DEFS,
    Implies,
    Not,
    Or,
    free_vars,
    parse_formula,
)

# name -> (parameter names, body builder over the parameter terms)
_DEFS: dict[str, tuple[int, object]] = {
    "CON": (2, lambda a, b: And(Atom("UNDIR", (a, b)), Atom("UNDIR", (a, App("rev", (b,)))))),
    "DIR": (2, lambda a, b: Not(Atom("UNDIR", (a, b)))),
    "OPP": (2, lambda a, b: Not(Atom("UNDIR", (a, App("rev", (b,)))))),
    "INOPP": (2, lambda a, b: Atom("UNDIR", (a, App("rev", (b,))))),
}


class UnknownAxiom(KeyError):
    pass


def _load_catalog() -> tuple[dict[str, Formula], dict[str, Formula]]:
    text = resources.files("dirgeo").joinpath("data/catalog.txt").read_text()
    main: dict[str, Formula] = {}
    defined: dict[str, Formula] = {}
    current = main
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[defined-forms]":
            current = defined
            continue
        name, _, src = line.partition(":")
        current[name.strip()] = parse_formula(src.strip(), GEOMETRY_WITH_DEFS)
    return main, defined


@lru_cache(maxsize=1)
def _catalog() -> dict[str, Formula]:
    main, _ = _load_catalog()
    for name, f in main.items():
        if free_vars(f):
            raise ValueError(f"catalog entry {name} is not closed")
    return main


@lru_cache(maxsize=1)
def _defined_forms() -> dict[str, Formula]:
    return _load_catalog()[1]


def axiom(name: str) -> Formula:
    """The closed catalog formula for `name` (I5, I6, I7, I7conv, I8, ODO,
    W1..W4, OO)."""
    try:
        return _catalog()[name]
    except KeyError:
        raise UnknownAxiom(name) from None


def axiom_names() -> tuple[str, ...]:
    return tuple(_catalog())


def defined_form(name: str) -> Formula:
    """The CON/DIR/OPP rewriting of `name` (I7, ODO, W1..W4)."""
    try:
        return _defined_forms()[name]
    except KeyError:
        raise UnknownAxiom(name) from None


def defined_form_names() -> tuple[str, ...]:
    return tuple(_defined_forms())


def expand_defs(f: Formula) -> Formula:
    """Replace CON/DIR/OPP/INOPP atoms by their UNDIR bodies.

    Idempotent on UNDIR-only formulas; raises ValueError on arity mismatch,
    and NestingError (a ValueError) if the expansion is too tall.
    """
    if isinstance(f, Atom):
        entry = _DEFS.get(f.pred)
        if entry is None:
            return f
        arity, builder = entry
        if len(f.args) != arity:
            raise ValueError(f"{f.pred} expects {arity} arguments, got {len(f.args)}")
        return builder(*f.args)
    if isinstance(f, Not):
        return Not(expand_defs(f.body))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(expand_defs(f.left), expand_defs(f.right))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, expand_defs(f.body))
    raise TypeError(f"not a formula: {f!r}")


def w_decomposition() -> list[Formula]:
    """The four clause-form conjuncts whose conjunction is equivalent to I7."""
    return [axiom("W1"), axiom("W2"), axiom("W3"), axiom("W4")]
