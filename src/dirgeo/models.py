"""Finite-structure semantics: evaluate, enumerate, find countermodels.

A structure interprets UNDIR as an n x n boolean table and rev as a function
table over the domain [0, n).  Enumeration order is fixed and documented:
size-ascending, then lexicographic over the rev table, then lexicographic
over the undir table read row-major with False < True.  find_countermodel
reports the first structure in that order satisfying every premise and
falsifying the goal; countermodel_at_size does the same for one size.
Sizes 1..MAX_SIZE are covered; a larger size raises ValueError.

The scan visits only rev_representatives(n), the rev tables least in their
class under relabelling (1, 3, 7 and 19 of n^n for n = 1..4), yet finds the
same first structure: closed formulas agree on isomorphic structures and
every undir table is scanned, so if r* is the first rev table with a
countermodel, the least member of its class has one too and is <= r*,
hence is r*.

Two evaluators exist on purpose: eval_formula is the plain recursive
Tarskian definition; the scan uses a bit-parallel path that evaluates all
2^(n*n) undir tables for one rev table at once, as a Python int bitset
with one bit per table.  A formula with no rev term does not depend on the
rev table, so the scan evaluates it once per size.  The two evaluators'
agreement is property-tested.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .syntax import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Term,
    Var,
    atoms,
    formula_terms,
    free_vars,
    subterms,
)

# The largest domain size the scan covers: each atom's table takes
# 2^(n*n) bits, 8 KB at n=4 and 4 MB at n=5, and size 5 has 3125 rev
# tables where size 4 has 256.
MAX_SIZE = 4


class UnassignedVariable(KeyError):
    pass


@dataclass(frozen=True)
class Structure:
    size: int
    undir: tuple[tuple[bool, ...], ...]
    rev: tuple[int, ...]

    def __post_init__(self):
        n = self.size
        assert len(self.rev) == n and all(0 <= r < n for r in self.rev)
        assert len(self.undir) == n and all(len(row) == n for row in self.undir)

    def describe(self) -> str:
        pairs = ", ".join(
            f"({i},{j})" for i in range(self.size) for j in range(self.size) if self.undir[i][j]
        )
        return f"size={self.size} rev=[{' '.join(map(str, self.rev))}] undir={{{pairs}}}"

    def to_record(self) -> dict:
        return {
            "size": self.size,
            "rev": list(self.rev),
            "undir": [[i, j] for i in range(self.size) for j in range(self.size) if self.undir[i][j]],
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "Structure":
        n = record["size"]
        pairs = {tuple(p) for p in record["undir"]}
        table = tuple(tuple((i, j) in pairs for j in range(n)) for i in range(n))
        return cls(n, table, tuple(record["rev"]))


def eval_term(s: Structure, t: Term, a: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return a[t.name]
        except KeyError:
            raise UnassignedVariable(t.name) from None
    if t.fn != "rev" or len(t.args) != 1:
        raise ValueError(f"structure does not interpret function {t.fn!r}/{len(t.args)}")
    return s.rev[eval_term(s, t.args[0], a)]


def eval_formula(s: Structure, f: Formula, a: Mapping[str, int] | None = None) -> bool:
    """Classical truth value of f in s under assignment a."""
    a = dict(a or {})
    return _eval(s, f, a)


def _eval(s: Structure, f: Formula, a: dict) -> bool:
    if isinstance(f, Atom):
        if f.pred != "UNDIR" or len(f.args) != 2:
            raise ValueError(f"structure does not interpret predicate {f.pred!r}/{len(f.args)}")
        i = eval_term(s, f.args[0], a)
        j = eval_term(s, f.args[1], a)
        return s.undir[i][j]
    if isinstance(f, Not):
        return not _eval(s, f.body, a)
    if isinstance(f, And):
        return _eval(s, f.left, a) and _eval(s, f.right, a)
    if isinstance(f, Or):
        return _eval(s, f.left, a) or _eval(s, f.right, a)
    if isinstance(f, Implies):
        return (not _eval(s, f.left, a)) or _eval(s, f.right, a)
    if isinstance(f, (Forall, Exists)):
        want_all = isinstance(f, Forall)
        saved = a.get(f.var)
        had = f.var in a
        for d in range(s.size):
            a[f.var] = d
            v = _eval(s, f.body, a)
            if v != want_all:
                result = not want_all
                break
        else:
            result = want_all
        if had:
            a[f.var] = saved
        else:
            del a[f.var]
        return result
    raise TypeError(f"not a formula: {f!r}")


def interprets(formulas: Iterable[Formula]) -> bool:
    """True iff the structures interpret every formula: each atom is UNDIR
    with two arguments and each function term is rev with one.  A defined
    atom (CON, DIR, ...) or a symbol of a custom signature is not."""
    return all(
        atom.pred == "UNDIR"
        and len(atom.args) == 2
        and all(
            isinstance(t, Var) or (t.fn == "rev" and len(t.args) == 1)
            for arg in atom.args
            for t in subterms(arg)
        )
        for f in formulas
        for atom in atoms(f)
    )


def structure_count(n: int) -> int:
    return (2 ** (n * n)) * (n ** n)


def enumerate_structures(n: int) -> Iterator[Structure]:
    """All structures of size n exactly once, in the documented order."""
    if n < 1:
        raise ValueError("domain size must be >= 1")
    for rev in itertools.product(range(n), repeat=n):
        for index in range(2 ** (n * n)):
            yield _structure_from_index(n, rev, index)


# ---------------------------------------------------------------------------
# Bit-parallel evaluation: one int bitset over all undir tables of size n for
# a fixed rev table.  Bit k is set iff the formula holds in undir table k,
# the table whose row-major bit string is k written MSB-first, matching the
# enumeration order.


@lru_cache(maxsize=MAX_SIZE)
def _atom_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """atoms[i][j]: the bitset of the undir tables with cell (i, j) set."""
    full = (1 << (1 << (n * n))) - 1

    def table(s: int) -> int:  # bit s of the index: 2^s zeros, 2^s ones, repeated
        block = 1 << s
        return full // ((1 << 2 * block) - 1) * (((1 << block) - 1) << block)

    return tuple(tuple(table(n * n - 1 - (i * n + j)) for j in range(n)) for i in range(n))


def _batch_eval(f: Formula, rev: Sequence[int], atoms, a: dict, n: int) -> int:
    full = (1 << (1 << (n * n))) - 1

    def value(f: Formula) -> int:
        cls = type(f)
        if cls is Atom:
            if f.pred != "UNDIR" or len(f.args) != 2:
                raise ValueError(f"structure does not interpret predicate {f.pred!r}/{len(f.args)}")
            return atoms[_assign_term(f.args[0], rev, a)][_assign_term(f.args[1], rev, a)]
        if cls is Not:
            return full ^ value(f.body)
        if cls is And:
            return value(f.left) & value(f.right)
        if cls is Or:
            return value(f.left) | value(f.right)
        if cls is Implies:
            return (full ^ value(f.left)) | value(f.right)
        if cls is not Forall and cls is not Exists:
            raise TypeError(f"not a formula: {f!r}")
        # Bind f.var in `a` itself, restored below; stop once acc is settled.
        var = f.var
        had, saved = var in a, a.get(var)
        acc, settled = (full, 0) if cls is Forall else (0, full)
        for d in range(n):
            a[var] = d
            acc = acc & value(f.body) if cls is Forall else acc | value(f.body)
            if acc == settled:
                break
        if had:
            a[var] = saved
        else:
            del a[var]
        return acc

    return value(f)


def _assign_term(t: Term, rev: Sequence[int], a: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return a[t.name]
        except KeyError:
            raise UnassignedVariable(t.name) from None
    if t.fn != "rev" or len(t.args) != 1:
        raise ValueError(f"structure does not interpret function {t.fn!r}/{len(t.args)}")
    return rev[_assign_term(t.args[0], rev, a)]


def _structure_from_index(n: int, rev: Sequence[int], index: int) -> Structure:
    bits = format(index, f"0{n * n}b")
    table = tuple(tuple(bits[i * n + j] == "1" for j in range(n)) for i in range(n))
    return Structure(n, table, tuple(rev))


def _size_error(n: int) -> ValueError:
    return ValueError(f"domain size must be in 1..{MAX_SIZE}, got {n}")


@lru_cache(maxsize=MAX_SIZE)
def rev_representatives(n: int) -> tuple[tuple[int, ...], ...]:
    """The rev tables of size n that are the lexicographic minimum of their
    class {s o rev o s^-1 : s a permutation of [0, n)}, in lexicographic order."""
    if not 1 <= n <= MAX_SIZE:
        raise _size_error(n)
    perms = list(itertools.permutations(range(n)))

    def is_least(rev):
        for s in perms:
            conjugate = [0] * n
            for d in range(n):
                conjugate[s[d]] = s[rev[d]]
            if tuple(conjugate) < rev:
                return False
        return True

    return tuple(filter(is_least, itertools.product(range(n), repeat=n)))


def _scan(sizes: range):
    """The representative rev tables of every size in `sizes`, in the
    documented order, as (size, rev, evaluator); the evaluator maps a
    closed formula to the bitset of the undir tables, for that rev table,
    in which it holds.  A formula with no rev term takes the same value for
    every rev table, so it is evaluated once per size."""
    if not sizes or sizes.start < 1 or sizes[-1] > MAX_SIZE:
        raise _size_error(sizes.stop - 1)
    for n in sizes:
        atoms = _atom_tables(n)
        shared: dict[Formula, int | None] = {}  # the value of a rev-free formula, else None

        def value(f, rev, atoms=atoms, n=n, shared=shared):
            v = shared.get(f)
            if v is None:
                v = _batch_eval(f, rev, atoms, {}, n)
                if f not in shared:
                    shared[f] = v if all(isinstance(t, Var) for t in formula_terms(f)) else None
            return v

        for rev in rev_representatives(n):
            yield n, rev, (lambda f, rev=rev, value=value: value(f, rev))


def _first_countermodel(premises: Sequence[Formula], goal: Formula, scan) -> Structure | None:
    for f in list(premises) + [goal]:
        if free_vars(f):
            raise ValueError("premises and goal must be closed")
    refuted = Not(goal)
    for n, rev, value in scan:
        mask = value(refuted)
        for p in premises:
            if not mask:
                break
            mask &= value(p)
        if mask:
            return _structure_from_index(n, rev, (mask & -mask).bit_length() - 1)
    return None


def countermodel_at_size(premises: Sequence[Formula], goal: Formula, n: int) -> Structure | None:
    """First structure of size n (documented order) satisfying the premises
    and falsifying the goal."""
    return _first_countermodel(premises, goal, _scan(range(n, n + 1)))


def find_countermodel(
    premises: Sequence[Formula], goal: Formula, max_n: int
) -> Structure | None:
    """Smallest structure (documented order) satisfying the premises and
    falsifying the goal, or None up to max_n (at most MAX_SIZE)."""
    return _first_countermodel(premises, goal, _scan(range(1, max_n + 1)))


def equivalent_on_all(f: Formula, g: Formula, max_n: int) -> bool:
    """True iff f and g take the same truth value in every structure of
    size <= max_n (both closed; max_n at most MAX_SIZE)."""
    if free_vars(f) or free_vars(g):
        raise ValueError("formulas must be closed")
    return all(value(f) == value(g) for _, _, value in _scan(range(1, max_n + 1)))


def direction_circle(n: int = 4) -> Structure:
    """The intended model: n directions, rev = half turn, undir = inequality."""
    if n % 2:
        raise ValueError("needs an even number of directions")
    table = tuple(tuple(i != j for j in range(n)) for i in range(n))
    rev = tuple((d + n // 2) % n for d in range(n))
    return Structure(n, table, rev)
