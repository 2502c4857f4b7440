"""The axiom catalog and the definitional layer (CON, DIR, OPP, INOPP).

Axioms live in data/catalog.txt as source text in the module grammar,
parsed once per process under GEOMETRY_WITH_DEFS.  _DEFS states each
defined relation once: its arity, from which that signature is built, and
its UNDIR body, into which expand_defs rewrites it, so the kernel only
ever sees the UNDIR-only core.  Library callers expand with expand_defs;
the CLI expands every axiom name it resolves.
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
    GEOMETRY,
    Implies,
    Not,
    Or,
    free_vars,
    parse_formula,
)

# name -> (arity, body builder over the argument terms)
_DEFS: dict[str, tuple[int, object]] = {
    "CON": (2, lambda a, b: And(Atom("UNDIR", (a, b)), Atom("UNDIR", (a, App("rev", (b,)))))),
    "DIR": (2, lambda a, b: Not(Atom("UNDIR", (a, b)))),
    "OPP": (2, lambda a, b: Not(Atom("UNDIR", (a, App("rev", (b,)))))),
    "INOPP": (2, lambda a, b: Atom("UNDIR", (a, App("rev", (b,))))),
}

# The defined relations parse as ordinary atoms under this signature.
GEOMETRY_WITH_DEFS = GEOMETRY.extended({name: arity for name, (arity, _) in _DEFS.items()})


class UnknownAxiom(KeyError):
    pass


@lru_cache(maxsize=1)
def _load_catalog() -> tuple[dict[str, Formula], dict[str, Formula]]:
    """(axioms, defined forms) by name; raises ValueError on an open axiom."""
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
    for name, f in main.items():
        if free_vars(f):
            raise ValueError(f"catalog entry {name} is not closed")
    return main, defined


def axiom(name: str) -> Formula:
    """The closed catalog formula for `name` (I5, I6, I7, I7conv, I8, ODO,
    W1..W4, OO)."""
    try:
        return _load_catalog()[0][name]
    except KeyError:
        raise UnknownAxiom(name) from None


def axiom_names() -> tuple[str, ...]:
    return tuple(_load_catalog()[0])


def defined_form(name: str) -> Formula:
    """The CON/DIR/OPP rewriting of `name` (I7, ODO, W1..W4)."""
    try:
        return _load_catalog()[1][name]
    except KeyError:
        raise UnknownAxiom(name) from None


def defined_form_names() -> tuple[str, ...]:
    return tuple(_load_catalog()[1])


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
