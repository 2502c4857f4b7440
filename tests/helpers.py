"""Shared test utilities: seeded random formulas over the geometry
signature, alpha variants, one-line checks and the intended model."""

from __future__ import annotations

import random

from dirgeo.kernel import Checker, Proof, ProofLine, Verdict
from dirgeo.models import Structure
from dirgeo.syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Term,
    Var,
    bound_vars,
    free_vars,
    match,
)

VARS = ["x", "y", "z", "v1", "v2", "v3"]


def random_term(rng: random.Random, pool: list[str], depth: int = 2) -> Term:
    if depth <= 0 or rng.random() < 0.55:
        return Var(rng.choice(pool))
    return App("rev", (random_term(rng, pool, depth - 1),))


def random_formula(rng: random.Random, pool: list[str] | None = None, depth: int = 4) -> Formula:
    pool = pool or list(VARS)
    if depth <= 0:
        return Atom("UNDIR", (random_term(rng, pool, 1), random_term(rng, pool, 1)))
    pick = rng.randrange(8)
    if pick <= 1:
        return Atom("UNDIR", (random_term(rng, pool), random_term(rng, pool)))
    if pick == 2:
        return Not(random_formula(rng, pool, depth - 1))
    if pick == 3:
        return And(random_formula(rng, pool, depth - 1), random_formula(rng, pool, depth - 1))
    if pick == 4:
        return Or(random_formula(rng, pool, depth - 1), random_formula(rng, pool, depth - 1))
    if pick == 5:
        return Implies(random_formula(rng, pool, depth - 1), random_formula(rng, pool, depth - 1))
    var = rng.choice(pool)
    cls = Forall if pick == 6 else Exists
    return cls(var, random_formula(rng, pool, depth - 1))


def check_line(proof_so_far: Proof, line: ProofLine) -> Verdict:
    """Certify one candidate line after a prefix of valid lines."""
    checker = Checker(proof_so_far.premises)
    assert all(checker.add_line(prev).ok for prev in proof_so_far.lines)
    return checker.add_line(line)


def direction_circle(n: int = 4) -> Structure:
    """The intended model: n directions, rev = half turn, undir = inequality."""
    table = tuple(tuple(i != j for j in range(n)) for i in range(n))
    return Structure(n, table, tuple((d + n // 2) % n for d in range(n)))


def alpha_eq(f: Formula, g: Formula) -> bool:
    return match(f, g, frozenset()) is not None  # equal up to bound-variable names


def closed_up(f: Formula) -> Formula:
    out = f
    for v in sorted(free_vars(f)):
        out = Forall(v, out)
    return out


def alpha_variant(rng: random.Random, f: Formula) -> Formula:
    """Rename every binder to a fresh name; alpha-equivalent by construction."""
    taken = set(free_vars(f)) | set(bound_vars(f))
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"w{counter[0]}"
            if name not in taken:
                taken.add(name)
                return name

    def rename_term(t: Term, env: dict[str, str]) -> Term:
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        return App(t.fn, tuple(rename_term(a, env) for a in t.args))

    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(rename_term(a, env) for a in g.args))
        if isinstance(g, Not):
            return Not(walk(g.body, env))
        if isinstance(g, (And, Or, Implies)):
            return type(g)(walk(g.left, env), walk(g.right, env))
        if isinstance(g, (Forall, Exists)):
            new = fresh() if rng.random() < 0.8 else g.var
            env2 = dict(env)
            env2[g.var] = new
            return type(g)(new, walk(g.body, env2))
        raise TypeError(g)

    return walk(f, {})
