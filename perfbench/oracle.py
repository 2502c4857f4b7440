"""The benchmark's own Tarskian evaluator, used only to check answers.

It reads dirgeo's formula objects but never imports dirgeo.models, so a
fault in the model finder cannot hide itself.  Two forms:

* ``holds(structure, formula)`` evaluates one structure by the textbook
  recursion over assignments;
* ``truth_vector(formula, n)`` evaluates the same recursion over every
  structure of size ``n`` at once, in the documented enumeration order
  (size, then the rev table lexicographically, then the undir table read
  row-major, most significant bit first, False < True).

The batch form is a gather over a stacked table of all structures, not
the model finder's per-rev-table bit tables, and it is limited to n <= 3
(13,824 structures), which is all the checks need.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from dirgeo.syntax import And, Atom, Exists, Forall, Implies, Not, Or, Var, free_vars

BATCH_MAX_SIZE = 3


def structure_count(n: int) -> int:
    return 2 ** (n * n) * n**n


def structures_before(n: int) -> int:
    """Structures of every size below n, in the documented order."""
    return sum(structure_count(k) for k in range(1, n))


def order_index(size: int, rev, undir) -> int:
    """Position of a structure among those of its size, documented order."""
    rev_index = 0
    for r in rev:
        rev_index = rev_index * size + r
    undir_index = 0
    for row in undir:
        for bit in row:
            undir_index = undir_index * 2 + bool(bit)
    return rev_index * 2 ** (size * size) + undir_index


def closure(f):
    """Universal closure, so that open conclusions are read as the kernel
    certifies them: true under every assignment."""
    for v in sorted(free_vars(f), reverse=True):
        f = Forall(v, f)
    return f


# -- one structure -------------------------------------------------------------


def _term(t, rev, env):
    if isinstance(t, Var):
        return env[t.name]
    if t.fn != "rev" or len(t.args) != 1:
        raise ValueError(f"no interpretation for function {t.fn!r}")
    return rev[_term(t.args[0], rev, env)]


def _holds(f, size, undir, rev, env) -> bool:
    if isinstance(f, Atom):
        if f.pred != "UNDIR":
            raise ValueError(f"no interpretation for predicate {f.pred!r}")
        return bool(undir[_term(f.args[0], rev, env)][_term(f.args[1], rev, env)])
    if isinstance(f, Not):
        return not _holds(f.body, size, undir, rev, env)
    if isinstance(f, And):
        return _holds(f.left, size, undir, rev, env) and _holds(f.right, size, undir, rev, env)
    if isinstance(f, Or):
        return _holds(f.left, size, undir, rev, env) or _holds(f.right, size, undir, rev, env)
    if isinstance(f, Implies):
        return not _holds(f.left, size, undir, rev, env) or _holds(f.right, size, undir, rev, env)
    if isinstance(f, (Forall, Exists)):
        values = (_holds(f.body, size, undir, rev, {**env, f.var: d}) for d in range(size))
        return all(values) if isinstance(f, Forall) else any(values)
    raise TypeError(f"not a formula: {f!r}")


def holds(structure, f) -> bool:
    """Truth of the closed formula f in a structure with .size, .undir, .rev."""
    return _holds(f, structure.size, structure.undir, structure.rev, {})


# -- every structure of one size -------------------------------------------------


@lru_cache(maxsize=None)
def _tables(n: int):
    if not 1 <= n <= BATCH_MAX_SIZE:
        raise ValueError(f"batch evaluation covers sizes 1..{BATCH_MAX_SIZE}, not {n}")
    revs = np.array(list(itertools.product(range(n), repeat=n)), dtype=np.intp).reshape(-1, n)
    bits = np.array(list(itertools.product((False, True), repeat=n * n)), dtype=bool)
    undirs = bits.reshape(-1, n, n)
    rev = np.repeat(revs, len(undirs), axis=0)
    undir = np.tile(undirs, (len(revs), 1, 1))
    return undir, rev, np.arange(len(rev))


def _term_vec(t, rev, rows, env):
    if isinstance(t, Var):
        return env[t.name]
    if t.fn != "rev" or len(t.args) != 1:
        raise ValueError(f"no interpretation for function {t.fn!r}")
    return rev[rows, _term_vec(t.args[0], rev, rows, env)]


def _vec(f, n, undir, rev, rows, env):
    if isinstance(f, Atom):
        if f.pred != "UNDIR":
            raise ValueError(f"no interpretation for predicate {f.pred!r}")
        i = _term_vec(f.args[0], rev, rows, env)
        j = _term_vec(f.args[1], rev, rows, env)
        return undir[rows, i, j]
    if isinstance(f, Not):
        return ~_vec(f.body, n, undir, rev, rows, env)
    if isinstance(f, And):
        return _vec(f.left, n, undir, rev, rows, env) & _vec(f.right, n, undir, rev, rows, env)
    if isinstance(f, Or):
        return _vec(f.left, n, undir, rev, rows, env) | _vec(f.right, n, undir, rev, rows, env)
    if isinstance(f, Implies):
        return ~_vec(f.left, n, undir, rev, rows, env) | _vec(f.right, n, undir, rev, rows, env)
    if isinstance(f, (Forall, Exists)):
        parts = [_vec(f.body, n, undir, rev, rows, {**env, f.var: d}) for d in range(n)]
        return np.logical_and.reduce(parts) if isinstance(f, Forall) else np.logical_or.reduce(parts)
    raise TypeError(f"not a formula: {f!r}")


def truth_vector(f, n: int) -> np.ndarray:
    """Truth of the closed formula f in every structure of size n, in order."""
    undir, rev, rows = _tables(n)
    return _vec(f, n, undir, rev, rows, {})


def countermodel_mask(premises, goal, n: int) -> np.ndarray:
    mask = ~truth_vector(goal, n)
    for p in premises:
        mask = mask & truth_vector(p, n)
    return mask


def has_countermodel(premises, goal, max_n: int = BATCH_MAX_SIZE) -> bool:
    return any(countermodel_mask(premises, goal, n).any() for n in range(1, max_n + 1))


def countermodel_problems(premises, goal, structure) -> list[str]:
    """Why a reported countermodel is wrong: it must satisfy every premise,
    falsify the goal, and (for sizes <= 3) be the first such structure in
    the documented order.  Empty when it is right."""
    problems = []
    if not all(holds(structure, p) for p in premises):
        problems.append("a premise is false in it")
    if holds(structure, goal):
        problems.append("the goal is true in it")
    n = structure.size
    for k in range(1, min(n, BATCH_MAX_SIZE + 1)):
        if countermodel_mask(premises, goal, k).any():
            problems.append(f"a countermodel of size {k} comes earlier")
    if n <= BATCH_MAX_SIZE:
        first = np.flatnonzero(countermodel_mask(premises, goal, n))
        index = order_index(n, structure.rev, structure.undir)
        if first.size and first[0] < index:
            problems.append(f"structure {first[0]} of size {n} comes earlier")
    return problems
