"""Finite-structure semantics: evaluate, enumerate, find countermodels.

A structure interprets UNDIR as an n x n boolean table and rev as a function
table over the domain [0, n).  Enumeration order is fixed and documented:
size-ascending, then lexicographic over the rev table, then lexicographic
over the undir table read row-major with False < True.  find_countermodel
reports the first structure in that order satisfying every premise and
falsifying the goal; countermodel_at_size does the same for one size.
Sizes 1..MAX_SIZE are covered; a larger size raises ValueError, and so
does a formula whose plan would nest too deeply (NestingError).

The scan visits only rev_representatives(n), the rev tables least in their
class under relabelling (1, 3, 7 and 19 of n^n for n = 1..4), yet finds the
same first structure: closed formulas agree on isomorphic structures and
every undir table is scanned, so if r* is the first rev table with a
countermodel, the least member of its class has one too and is <= r*,
hence is r*.

Two evaluators exist on purpose: eval_formula is the plain recursive
Tarskian definition, the reference; the scan values all 2^(n*n) undir
tables for one rev table at once, as a Python int bitset with one bit per
table, by a plan of the formula (see _plan) compiled to Python (_compiled)
that values every part of it.
Within one scan, a quantified subformula with no rev term is valued once
per size and assignment of its free variables, and shared by every rev
table.  The two evaluators' agreement is property-tested.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .syntax import (
    _CACHE_SIZE,
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
    atoms,
    formula_terms,
    free_vars,
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
        if type(n) is not int or n < 1:
            raise ValueError(f"size must be a positive integer, got {n!r}")
        if len(self.rev) != n or not all(type(r) is int and 0 <= r < n for r in self.rev):
            raise ValueError(f"rev must be {n} elements of [0, {n}), got {list(self.rev)}")
        if len(self.undir) != n or any(len(row) != n for row in self.undir):
            raise ValueError(f"undir must be a {n} x {n} table")

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
        for p in pairs:
            if len(p) != 2 or not all(type(i) is int and 0 <= i < n for i in p):
                raise ValueError(f"undir pair {list(p)} is not a pair of elements of [0, {n})")
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
    return _uninterpreted(formulas) is None


def _uninterpreted(formulas: Iterable[Formula]) -> str | None:
    """Why the structures do not interpret the first formula they miss, or None."""
    return next(filter(None, map(_why_uninterpreted, formulas)), None)


@lru_cache(maxsize=_CACHE_SIZE)
def _why_uninterpreted(f: Formula) -> str | None:
    """Why the structures do not interpret f, or None: worked out once per node."""
    for atom in atoms(f):
        if atom.pred != "UNDIR" or len(atom.args) != 2:
            return f"structure does not interpret predicate {atom.pred!r}/{len(atom.args)}"
        for t in formula_terms(atom):
            if isinstance(t, App) and (t.fn != "rev" or len(t.args) != 1):
                return f"structure does not interpret function {t.fn!r}/{len(t.args)}"
    return None


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


@lru_cache(maxsize=MAX_SIZE)
def _negated_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """negated[i][j]: the bitset of the undir tables with cell (i, j) clear."""
    full = (1 << (1 << (n * n))) - 1
    return tuple(tuple(full ^ t for t in row) for row in _atom_tables(n))


_DUAL = {Forall: Exists, Exists: Forall, And: Or, Or: And}


class _NegatedAtom(Atom):
    """~atom in a plan only, read from the negated atom tables: a node of the
    atom's own height, where a Not over the atom would be one level taller."""

    __slots__ = ()


@lru_cache(maxsize=_CACHE_SIZE)
def _plan(f: Formula, positive: bool) -> Formula:
    """f, or ~f if not positive, as the scan evaluates it: in negation
    normal form (no ->, and ~ only on atoms, as _NegatedAtom nodes) and
    miniscoped (see _scope)."""
    cls = type(f)
    if cls is Atom:
        return f if positive else _NegatedAtom(f.pred, f.args)
    if cls is Not:
        return _plan(f.body, not positive)
    if cls is Forall or cls is Exists:
        return _scope(cls if positive else _DUAL[cls], f.var, _plan(f.body, positive))
    if cls is not And and cls is not Or and cls is not Implies:
        raise TypeError(f"not a formula: {f!r}")
    junction = And if cls is And else Or  # A -> B is ~A | B
    left = _plan(f.left, positive if cls is not Implies else not positive)
    return (junction if positive else _DUAL[junction])(left, _plan(f.right, positive))


@lru_cache(maxsize=_CACHE_SIZE)
def _scope(q, var: str, body: Formula) -> Formula:
    """q var. body miniscoped: ∀ distributes over & and ∃ over |, and each
    quantifier keeps only the disjuncts (∀) or conjuncts (∃) in which var
    is free.  A vacuous quantifier is dropped: domains are non-empty.  The
    parts are rejoined in their order, as short as that order allows (see
    _joined).  Worked out once per node."""
    spread = And if q is Forall else Or
    if type(body) is spread:
        return spread(_scope(q, var, body.left), _scope(q, var, body.right))
    junction = _DUAL[spread]
    parts = _members(junction, body)
    inside = [p for p in parts if var in free_vars(p)]
    if not inside:
        return body
    if len(inside) == 1 and type(inside[0]) is spread:
        scoped = _scope(q, var, inside[0])
    else:
        scoped = q(var, _joined(junction, inside))
    return _joined(junction, [p for p in parts if var not in free_vars(p)] + [scoped])


def _members(junction, f: Formula) -> list[Formula]:
    """The distinct parts of f's chain of junction, left to right, with each
    node visited once: a repeated part goes, as & and | are idempotent."""
    seen, parts, stack = set(), [], [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if type(g) is junction:
            stack += (g.right, g.left)
        else:
            parts.append(g)
    return parts


def _joined(junction, parts: list[Formula]) -> Formula:
    """The parts, in order, joined by junction into a tree as short as any
    that keeps their order: the top two of the stack are joined while the
    lower is no taller than the top or the next part.  A bitset does not
    depend on the grouping."""
    stack: list[Formula] = []
    for p in parts:
        while len(stack) > 1 and stack[-2].height <= max(stack[-1].height, p.height):
            stack[-2:] = [junction(stack[-2], stack[-1])]
        stack.append(p)
    while len(stack) > 1:
        stack[-2:] = [junction(stack[-2], stack[-1])]
    return stack[0]


# CPython allows 20 nested loops, 100 indents and 200 nested brackets, so a
# generated function nests at most _LOOPS loops (a deeper quantifier is a
# function of its own).  An expression nests fewer brackets than its plan
# node's height, which the node bound keeps at 200 or less.
_LOOPS = 12


@lru_cache(maxsize=1024)  # each entry holds a function and its code
def _compiled(g: Formula) -> Callable[..., int]:
    """The plan node g as a Python function of (R, A, N, F, S, D, then the
    values of g's free variables in sorted order): rev table, atom tables,
    negated tables, all-true bitset, the size's rev-free memo, range(n).
    Each quantifier is a `for` loop over D, each loop body one &/|
    expression.  A quantified part is memoised in S if it is rev-free, else
    for the call where a hit can happen: it occurs twice, or a loop around
    it binds a variable it does not use.  The source holds generated names
    and integers only; plan nodes and functions reach it by its namespace."""
    return _Compiler(g).function


class _Compiler:
    def __init__(self, g: Formula):
        self.names, self.ns, self.lines, self.memos, self.blocks = itertools.count(), {}, [], {}, {}
        self.reached, stack = Counter(), [g]
        while stack:  # each junction and quantifier entered once: linear in g's DAG
            h = stack.pop()
            self.reached[h] += 1
            if self.reached[h] == 1 and type(h) in _DUAL:
                stack += [h.left, h.right] if type(h) in (And, Or) else [h.body]
        params = {v: self.name("v") for v in sorted(free_vars(g))}
        result = self.expr(g, params, [], 1)
        head = [f"def f(R, A, N, F, S, D, {', '.join(params.values())}):"]
        head += [f" {m} = {{}}" for m in self.memos.values()]
        exec("\n".join(head + self.lines + [f" return {result}"]), self.ns)
        self.function = self.ns["f"]

    def name(self, stem: str, value=None) -> str:
        name = f"{stem}{next(self.names)}"
        if value is not None:
            self.ns[name] = value
        return name

    def emit(self, depth: int, *lines: str) -> None:
        # a line closes every deeper block, and the values of repeated parts kept in it
        self.blocks = {d: kept for d, kept in self.blocks.items() if d <= depth}
        self.lines += [" " * depth + line for line in lines]

    def term(self, t: Term, env: dict) -> str:
        return env[t.name] if type(t) is Var else f"R[{self.term(t.args[0], env)}]"

    def expr(self, g: Formula, env: dict, loops: list, depth: int) -> str:
        """g's value as an expression, after its statements."""
        cls, free = type(g), [env[v] for v in sorted(free_vars(g))]
        known = [b[(g, *free)] for d, b in self.blocks.items() if d <= depth and (g, *free) in b]
        if known:
            return known[0]
        if cls is Atom or cls is _NegatedAtom:
            x, y = g.args
            return f"{'A' if cls is Atom else 'N'}[{self.term(x, env)}][{self.term(y, env)}]"
        if cls is And or cls is Or:
            left, right = self.expr(g.left, env, loops, depth), self.expr(g.right, env, loops, depth)
            text = f"({left} {'&' if cls is And else '|'} {right})"
            if self.reached[g] == 1:
                return text
            self.emit(depth, f"{(q := self.name('t'))} = {text}")
            self.blocks.setdefault(depth, {})[(g, *free)] = q
            return q
        q, key, memo, at = self.name("q"), "".join(v + ", " for v in free), None, depth
        if not any(type(t) is App for t in formula_terms(g)):
            memo, key = "S", f"({self.name('k', g)}, {key})"
        elif self.reached[g] > 1 or not set(loops) <= set(free):
            memo, key = self.memos.setdefault(g, self.name("m")), f"({key})"
        if memo:
            self.emit(at, f"{q} = {memo}.get({key})", f"if {q} is None:")
            at += 1
        if len(loops) >= _LOOPS:
            self.emit(at, f"{q} = {self.name('k', _compiled(g))}(R, A, N, F, S, D, {', '.join(free)})")
        else:
            v, every = self.name("v"), cls is Forall
            self.emit(at, f"{q} = {'F' if every else '0'}", f"for {v} in D:")
            body = self.expr(g.body, {**env, g.var: v}, loops + [v], at + 1)
            self.emit(at + 1, f"{q} {'&' if every else '|'}= {body}")
        if memo:
            self.emit(at, f"{memo}[{key}] = {q}")
        self.blocks.setdefault(depth, {})[(g, *free)] = q
        return q


class _Evaluator:
    """evaluator(f), evaluator(f, False): the bitset of the undir tables of
    size n in which the closed, interpreted f holds, fails, for this rev
    table.  `shared` memoises rev-free parts for every rev table of size n."""

    def __init__(self, n: int, rev: Sequence[int], shared: dict):
        self.tables = (rev, _atom_tables(n), _negated_tables(n), (1 << 2 ** n ** 2) - 1, shared, range(n))

    def __call__(self, f: Formula, positive: bool = True) -> int:
        return _compiled(_plan(f, positive))(*self.tables)


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
    documented order, as (size, rev, value); value maps a closed formula to
    the bitset of the undir tables, for that rev table, in which it holds.
    The memo of rev-free values lives for one size of one scan."""
    if not sizes or sizes.start < 1 or sizes[-1] > MAX_SIZE:
        raise _size_error(sizes.stop - 1)
    for n in sizes:
        shared: dict = {}
        for rev in rev_representatives(n):
            yield n, rev, _Evaluator(n, rev, shared)


def _require(formulas: Sequence[Formula], open_message: str) -> None:
    """Raise ValueError unless every formula is closed and interpreted."""
    if any(free_vars(f) for f in formulas):
        raise ValueError(open_message)
    why = _uninterpreted(formulas)
    if why:
        raise ValueError(why)


def _first_countermodel(premises: Sequence[Formula], goal: Formula, scan) -> Structure | None:
    _require(list(premises) + [goal], "premises and goal must be closed")
    for n, rev, value in scan:
        mask = value(goal, False)  # ~goal's plan, without a ~goal node past the bound
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
    _require([f, g], "formulas must be closed")
    return all(value(f) == value(g) for _, _, value in _scan(range(1, max_n + 1)))


def direction_circle(n: int = 4) -> Structure:
    """The intended model: n directions, rev = half turn, undir = inequality."""
    if n % 2:
        raise ValueError("needs an even number of directions")
    table = tuple(tuple(i != j for j in range(n)) for i in range(n))
    rev = tuple((d + n // 2) % n for d in range(n))
    return Structure(n, table, rev)
