"""Terms and formulas of the directed-line fragment, with parser and printer.

The object language has one binary predicate UNDIR and one unary function
rev by default; other signatures can be declared.  Surface syntax follows
the ASCII conventions of the bundled derivation transcripts:

    quantifiers   (Ax) (Ex)        prefix, bind tightest (like ~)
    negation      ~                tightest binary-free level
    conjunction   &                binds tighter than |
    disjunction   |                binds tighter than ->
    implication   ->               loosest, right-associative
    grouping      [ ... ]          also used for function terms [rev x]
    atoms         UNDIR t1 t2      prefix form, arity from the signature

Unicode aliases are accepted on input and never emitted.

Terms and formulas are hash-consed: two equal structures are the same
object, so == is `is` and hashing costs O(1), whatever the size of the
tree.  So are the keys of canonical_key.  Build nodes only through their constructors, with the fields in
order; unpickling and copying do so too.

Every node stores its height: a variable is one level, and each term,
atom, connective and quantifier adds one.  The constructor raises
NestingError past 2 * _MAX_DEPTH levels, and the parser rejects text past
_MAX_DEPTH, which leaves a derivation room to build on what it reads.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import Iterator, Mapping, Union


class NestingError(ValueError):
    """A node would be taller than 2 * _MAX_DEPTH levels."""


class ParseError(ValueError):
    """Lexical or grammatical error, with the offset of the culprit: the
    index of its first character in the string the caller passed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# AST.  Building a node looks up its class and fields in _NODES and returns
# the live node that has them, if there is one.  == and hash are the
# identity defaults of object.  The table holds nodes weakly, so it is
# bounded by the nodes still referenced.  It is a plain dict of KeyedRefs
# rather than a WeakValueDictionary, whose Python-level get() costs about
# three times a dict lookup on every node built.  A node's height is worked
# out once, on a miss, by its class's _height from the fields.

_NODES: dict = {}  # (class, *fields) -> weakref.KeyedRef to the node

# Text may nest _MAX_DEPTH levels, a node twice as many.  No recursive walker
# (_subst, _canon, _print, match, the models' evaluators) takes more than 3
# frames per level, so none reaches Python's default recursion limit of 1000.
_MAX_DEPTH = 100


def _forget(ref: weakref.KeyedRef, nodes: dict = _NODES) -> None:
    """A node died: drop its entry, unless a new node has taken the key.
    The table is bound as a default so that the callback still finds it
    while the interpreter tears the module down."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


class _Node:
    __slots__ = ("__weakref__", "height")
    _fields: tuple[str, ...] = ()
    height: int

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(fields) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, got {fields!r}")
        height = cls._height(*fields)
        if height > 2 * _MAX_DEPTH:
            raise NestingError("formula nested too deeply")
        node = object.__new__(cls)
        object.__setattr__(node, "height", height)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(node, name, value)
        _NODES[key] = weakref.KeyedRef(node, _forget, key)
        return node

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Unpickling and deepcopy call the constructor, which re-interns
        # the node in the receiving process.
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _over_args(head, args) -> int:
    return 1 + max([a.height for a in args], default=0)


def _over_sides(left, right) -> int:
    return 1 + max(left.height, right.height)


class Var(_Node):
    __slots__ = _fields = ("name",)
    _height = staticmethod(lambda name: 1)
    name: str


class App(_Node):
    __slots__ = _fields = ("fn", "args")
    _height = staticmethod(_over_args)
    fn: str
    args: tuple["Term", ...]


Term = Union[Var, App]


class Atom(_Node):
    __slots__ = _fields = ("pred", "args")
    _height = staticmethod(_over_args)
    pred: str
    args: tuple[Term, ...]


class Not(_Node):
    __slots__ = _fields = ("body",)
    _height = staticmethod(lambda body: 1 + body.height)
    body: "Formula"


class And(_Node):
    __slots__ = _fields = ("left", "right")
    _height = staticmethod(_over_sides)
    left: "Formula"
    right: "Formula"


class Or(_Node):
    __slots__ = _fields = ("left", "right")
    _height = staticmethod(_over_sides)
    left: "Formula"
    right: "Formula"


class Implies(_Node):
    __slots__ = _fields = ("left", "right")
    _height = staticmethod(_over_sides)
    left: "Formula"
    right: "Formula"


class Forall(_Node):
    __slots__ = _fields = ("var", "body")
    _height = staticmethod(lambda var, body: 1 + body.height)
    var: str
    body: "Formula"


class Exists(_Node):
    __slots__ = _fields = ("var", "body")
    _height = staticmethod(lambda var, body: 1 + body.height)
    var: str
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Forall, Exists]

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


@dataclass(frozen=True)
class Signature:
    """Declared predicate and function arities.

    Names are matched case-insensitively; predicates canonicalize to upper
    case, functions to lower case, and so do the keys of the two maps.  The
    maps are read-only views, so a signature hashes by their items.
    """

    predicates: Mapping[str, int]
    functions: Mapping[str, int]

    def __post_init__(self):
        for name, case in (("predicates", str.upper), ("functions", str.lower)):
            view = MappingProxyType({case(k): v for k, v in getattr(self, name).items()})
            object.__setattr__(self, name, view)

    def __hash__(self) -> int:
        return hash((frozenset(self.predicates.items()), frozenset(self.functions.items())))

    def __reduce__(self):
        return Signature, (dict(self.predicates), dict(self.functions))

    def extended(self, predicates: Mapping[str, int] = (), functions: Mapping[str, int] = ()) -> "Signature":
        return Signature({**self.predicates, **dict(predicates)}, {**self.functions, **dict(functions)})


GEOMETRY = Signature(predicates={"UNDIR": 2}, functions={"rev": 1})


# ---------------------------------------------------------------------------
# Lexer.  _lex returns the token texts as one flat list that ends in "".  A
# Unicode alias is read as the ASCII token it stands for; the quantifier
# symbols ∀ and ∃ stay themselves, so they never read as a name.  The parser
# dispatches on the text: a name is the one token that is alphanumeric.  One
# findall reads the tokens: it skips what starts no token, so the input is
# well formed iff the tokens, joined, are its non-whitespace characters.  Only
# a malformed input is matched again, by _LEXED_RE, to find the culprit.
# Offsets are found again only when an error needs one (_Parser.offset).

_ALIASES = {"∼": "~", "¬": "~", "∧": "&", "∨": "|", "→": "->", "⟶": "->"}

_SYMBOL = r"->|[()\[\]~&|,∼¬∧∨→⟶∀∃]"
_TOKEN_RE = re.compile(f"{IDENT_RE.pattern}|{_SYMBOL}")
# Tokens and whitespace from the start; it ends at the first character that
# starts no token.  A name may not be followed by a name character, so the
# match never backtracks into a name.
_LEXED_RE = re.compile(rf"(?:\s*(?:{IDENT_RE.pattern}(?![A-Za-z0-9])|{_SYMBOL}))*\s*")


def _lex(src: str) -> list[str]:
    texts = _TOKEN_RE.findall(src)
    if "".join(texts) != "".join(src.split()):
        end = _LEXED_RE.match(src).end()
        raise ParseError(f"unexpected character {src[end]!r}", end)
    if not src.isascii():
        texts = [_ALIASES.get(text, text) for text in texts]
    texts.append("")
    return texts


# ---------------------------------------------------------------------------
# Parser (recursive descent, precedence ~ > & > | > ->, -> right-assoc).
# self.pos indexes the token list; no rule reads past its "" entry.
#
# Every rule takes the depth at which its node sits in the tree.  nest() caps
# it at _MAX_DEPTH, which bounds the parser's own recursion (at most 4
# frames per level).  A chain of & or | is parsed by a loop but nests to the
# left, so each operator sinks the chain read so far one level deeper: read
# at depth, its lowest node sits at depth + height - 1, one more once sunk.
# A bracket group adds a level to depth but none to height.  So parsed text
# is at most _MAX_DEPTH + 1 levels tall (the left of -> sits at its depth).


class _Parser:
    def __init__(self, src: str, signature: Signature, variables: dict | None = None):
        self.src = src
        self.texts = _lex(src)
        self.pos = 0
        self.predicates = signature.predicates
        self.functions = signature.functions
        # name -> Var of the variables read so far; none of them is a function.
        self.variables = {} if variables is None else variables

    def offset(self, i: int) -> int:
        """The character offset of token i in the input."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.src)]
        return starts[i] if i < len(starts) else len(self.src)

    def nest(self, depth: int) -> None:
        """Admit a node at `depth`, starting at the current token."""
        if depth > _MAX_DEPTH:
            raise ParseError("formula nested too deeply", self.offset(self.pos))

    def expect(self, token: str) -> int:
        """Step over `token`, or over any name if it is "name"."""
        i = self.pos
        text = self.texts[i]
        if not (text.isalnum() if token == "name" else text == token):
            raise ParseError(f"expected {token!r}, found {text!r}", self.offset(i))
        self.pos = i + 1
        return i

    # formula := implication
    def implication(self, depth: int) -> Formula:
        left = self.disjunction(depth)
        if self.texts[self.pos] == "->":
            self.pos += 1
            return Implies(left, self.implication(depth + 1))
        return left

    def disjunction(self, depth: int) -> Formula:
        f = self.conjunction(depth)
        while self.texts[self.pos] == "|":
            self.nest(depth + f.height)
            self.pos += 1
            f = Or(f, self.conjunction(depth + 1))
        return f

    def conjunction(self, depth: int) -> Formula:
        f = self.unary(depth)
        while self.texts[self.pos] == "&":
            self.nest(depth + f.height)
            self.pos += 1
            f = And(f, self.unary(depth + 1))
        return f

    def unary(self, depth: int) -> Formula:
        if depth > _MAX_DEPTH:
            self.nest(depth)
        i = self.pos
        text = self.texts[i]
        if text == "~":
            self.pos = i + 1
            return Not(self.unary(depth + 1))
        if text == "(":
            return self.quantified(depth)
        if text == "[":
            head = self.texts[i + 1]
            if head.isalnum() and head.lower() in self.functions:
                raise ParseError(
                    f"function term [{head} ...] found where a formula is required",
                    self.offset(i),
                )
            self.pos = i + 1
            inner = self.implication(depth + 1)
            self.expect("]")
            return inner
        if text.isalnum():
            return self.atom(depth)
        raise ParseError(f"expected a formula, found {text!r}", self.offset(i))

    def quantified(self, depth: int) -> Formula:
        """The quantified formula at the current token, a "("."""
        i = self.pos + 1
        self.pos = i + 1
        text = self.texts[i]
        if text == "∀" or text == "∃":
            q = "A" if text == "∀" else "E"
            var = self.texts[self.expect("name")]
        elif text.isalnum():
            if text[0] not in "AE" or not IDENT_RE.fullmatch(text, 1) or self.texts[self.pos] != ")":
                raise ParseError(
                    f"expected a quantifier like (Ax) or (Ex), found ({text}", self.offset(i)
                )
            q, var = text[0], text[1:]
        else:
            raise ParseError(f"expected a quantifier, found {text!r}", self.offset(i))
        self.expect(")")
        body = self.unary(depth + 1)
        return Forall(var, body) if q == "A" else Exists(var, body)

    def atom(self, depth: int) -> Formula:
        """The atom at the current token, a name."""
        i = self.pos
        text = self.texts[i]
        pred = text.upper()
        arity = self.predicates.get(pred)
        if arity is None:
            raise ParseError(f"unknown predicate {text!r}", self.offset(i))
        self.pos = i + 1
        if arity == 2:
            return Atom(pred, (self.term(depth + 1), self.term(depth + 1)))
        return Atom(pred, tuple([self.term(depth + 1) for _ in range(arity)]))

    def term(self, depth: int) -> Term:
        if depth > _MAX_DEPTH:
            self.nest(depth)
        i = self.pos
        text = self.texts[i]
        var = self.variables.get(text)
        if var is not None:
            self.pos = i + 1
            return var
        if text == "[":
            self.pos = i + 1
            j = self.expect("name")
            fn = self.texts[j]
            arity = self.functions.get(fn.lower())
            if arity is None:
                raise ParseError(f"unknown function symbol {fn!r}", self.offset(j))
            args = tuple([self.term(depth + 1) for _ in range(arity)])
            self.expect("]")
            return App(fn.lower(), args)
        if text.isalnum():
            self.pos = i + 1
            if text.lower() in self.functions:
                raise ParseError(f"function symbol {text!r} used without brackets", self.offset(i))
            var = self.variables[text] = Var(text)
            return var
        raise ParseError(f"expected a term, found {text!r}", self.offset(i))

    # Annotation terms additionally allow call syntax: rev(rev(v3)).
    def annot_term(self, depth: int) -> Term:
        if self.texts[self.pos] == "[":
            return self.term(depth)
        self.nest(depth)
        i = self.expect("name")
        name = self.texts[i]
        if self.texts[self.pos] == "(":
            arity = self.functions.get(name.lower())
            if arity is None:
                raise ParseError(f"unknown function symbol {name!r}", self.offset(i))
            self.pos += 1
            args = [self.annot_term(depth + 1)]
            while self.texts[self.pos] == ",":
                self.pos += 1
                args.append(self.annot_term(depth + 1))
            self.expect(")")
            if len(args) != arity:
                raise ParseError(
                    f"{name!r} expects {arity} argument(s), got {len(args)}", self.offset(i)
                )
            return App(name.lower(), tuple(args))
        if name.lower() in self.functions:
            raise ParseError(f"function symbol {name!r} needs arguments", self.offset(i))
        return self.variables.setdefault(name, Var(name))

    def finish(self, value):
        i = self.pos
        if self.texts[i]:
            raise ParseError(f"trailing input {self.texts[i]!r}", self.offset(i))
        return value


def parse_formula(src: str, signature: Signature = GEOMETRY, variables: dict | None = None) -> Formula:
    """`variables`, if given, is a name -> Var dict that the parse reads and
    adds to, so that one reader's calls build each variable once.  Share it
    only under one signature: a variable of one may be a function of another."""
    p = _Parser(src, signature, variables)
    return p.finish(p.implication(1))


def parse_term(src: str, signature: Signature = GEOMETRY) -> Term:
    p = _Parser(src, signature)
    return p.finish(p.term(1))


def parse_annotation_term(src: str, signature: Signature = GEOMETRY, variables: dict | None = None) -> Term:
    """Terms as they appear in rule annotations: bare names, [rev x], rev(x)."""
    p = _Parser(src, signature, variables)
    return p.finish(p.annot_term(1))



# ---------------------------------------------------------------------------
# Printer.  Minimal brackets; parse(print(f)) is structurally identical to f.
# A binary node is bracketed when its precedence is below the least its
# position admits; a unary node (~, a quantifier) never is, since its
# precedence is the highest any position asks for.

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4

# class -> (operator, precedence, least precedence of the left side, of the right)
_BINARY = {
    And: (" & ", _PREC_AND, _PREC_AND, _PREC_AND + 1),
    Or: (" | ", _PREC_OR, _PREC_OR, _PREC_OR + 1),
    Implies: (" -> ", _PREC_IMPLIES, _PREC_IMPLIES + 1, _PREC_IMPLIES),
}


def print_term(t: Term) -> str:
    if type(t) is Var:
        return t.name
    return "[" + t.fn + "".join([" " + (a.name if type(a) is Var else print_term(a)) for a in t.args]) + "]"


def print_annotation_term(t: Term) -> str:
    """Call-syntax form used in justification annotations: rev(rev(v3))."""
    if isinstance(t, Var):
        return t.name
    return t.fn + "(" + ", ".join(print_annotation_term(a) for a in t.args) + ")"


def _print(f: Formula, min_prec: int) -> str:
    cls = type(f)
    if cls is Atom:
        return f.pred + "".join([" " + (a.name if type(a) is Var else print_term(a)) for a in f.args])
    binary = _BINARY.get(cls)
    if binary is not None:
        op, prec, left, right = binary
        s = _print(f.left, left) + op + _print(f.right, right)
        return s if prec >= min_prec else "[" + s + "]"
    if cls is Not:
        return "~" + _print(f.body, _PREC_UNARY)
    if cls is Forall:
        return "(A" + f.var + ")" + _print(f.body, _PREC_UNARY)
    if cls is Exists:
        return "(E" + f.var + ")" + _print(f.body, _PREC_UNARY)
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """f in the surface syntax.  _print reads the class of each node once,
    and one table serves the three binary connectives."""
    return _print(f, 0)


# ---------------------------------------------------------------------------
# Variables and substitution

# Entries kept by the free_vars, canonical_key and substitution caches: far
# more than a search or a corpus check touches, but bounded for a
# long-lived process.
_CACHE_SIZE = 2**16


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out: frozenset[str] = frozenset()
    for a in t.args:
        out |= term_vars(a)
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        out: frozenset[str] = frozenset()
        for a in f.args:
            out |= term_vars(a)
        return out
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def bound_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset()
    if isinstance(f, Not):
        return bound_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return bound_vars(f.left) | bound_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return bound_vars(f.body) | {f.var}
    raise TypeError(f"not a formula: {f!r}")


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def atoms(f: Formula) -> Iterator[Atom]:
    """Atom occurrences of f, left to right, but each &, | or -> node is
    entered once: a repeated one is skipped, so a formula with shared parts
    costs its number of nodes, not its size as a tree."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            yield g
        elif isinstance(g, (Not, Forall, Exists)):
            stack.append(g.body)
        elif g not in seen:
            seen.add(g)
            stack.extend((g.right, g.left))


def formula_terms(f: Formula) -> Iterator[Term]:
    """The term occurrences in atoms(f), outermost first."""
    for atom in atoms(f):
        for a in atom.args:
            yield from subterms(a)


def substitute_term(t: Term, bindings: Mapping[str, Term]) -> Term:
    if isinstance(t, Var):
        return bindings.get(t.name, t)
    return App(t.fn, tuple(substitute_term(a, bindings) for a in t.args))


def fresh_name(base: str, taken: frozenset[str] | set[str]) -> str:
    stem = base.rstrip("0123456789") or "v"
    k = 1
    while f"{stem}{k}" in taken or f"{stem}{k}" == base:
        k += 1
    return f"{stem}{k}"


def substitute(f: Formula, bindings: Mapping[str, Term]) -> Formula:
    """Simultaneous capture-avoiding substitution on free occurrences;
    NestingError if the result is too tall."""
    bindings = {k: v for k, v in bindings.items() if v is not Var(k)}
    if not bindings:
        return f
    if len(bindings) == 1:
        ((var, t),) = bindings.items()
        return _subst_one(f, var, t)
    return _subst(f, bindings)


@lru_cache(maxsize=_CACHE_SIZE)
def _subst_one(f: Formula, var: str, t: Term) -> Formula:
    """f[var := t], the node substitute(f, {var: t}) builds, also when t is
    Var(var).  The kernel's US, EE and EG checks and the search's
    instantiation rounds call it directly and repeat the same ones."""
    return _subst(f, {var: t})


def _subst(f: Formula, bindings: Mapping[str, Term]) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(substitute_term(a, bindings) for a in f.args))
    if isinstance(f, Not):
        return Not(_subst(f.body, bindings))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_subst(f.left, bindings), _subst(f.right, bindings))
    if isinstance(f, (Forall, Exists)):
        live = {k: v for k, v in bindings.items() if k != f.var and k in free_vars(f.body)}
        if not live:
            return f
        body = f.body
        var = f.var
        if any(var in term_vars(t) for t in live.values()):
            taken = free_vars(body) | set(live) | {n for t in live.values() for n in term_vars(t)}
            var = fresh_name(f.var, taken)
            body = _subst(body, {f.var: Var(var)})
        return type(f)(var, _subst(body, live))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Matching up to bound-variable names, and the canonical comparison key


def match(pattern: Formula, target: Formula, eligible: frozenset[str]) -> dict[str, Term] | None:
    """The bindings of pattern's eligible free variables under which pattern
    is target up to bound-variable names, or None if there are none.

    Binders are paired by position, with one environment per side: a bound
    pattern variable matches only the variable that its paired binder binds,
    and a free one that is not eligible only itself, free in target.  An
    eligible variable binds the same term at every occurrence, a term that
    names no variable bound in target there, so matching never captures."""
    binding: dict[str, Term] = {}

    def terms(p: Term, t: Term, env1: dict, env2: dict) -> bool:
        if isinstance(p, App):
            return isinstance(t, App) and p.fn == t.fn and len(p.args) == len(t.args) and all(
                terms(a, b, env1, env2) for a, b in zip(p.args, t.args)
            )
        if p.name in env1:
            return isinstance(t, Var) and env2.get(t.name) == env1[p.name]
        if p.name in eligible:
            return not any(v in env2 for v in term_vars(t)) and binding.setdefault(p.name, t) is t
        return t is p and p.name not in env2

    def walk(p: Formula, t: Formula, env1: dict, env2: dict, depth: int) -> bool:
        if type(p) is not type(t):
            return False
        if isinstance(p, Atom):
            return p.pred == t.pred and len(p.args) == len(t.args) and all(
                terms(a, b, env1, env2) for a, b in zip(p.args, t.args)
            )
        if isinstance(p, Not):
            return walk(p.body, t.body, env1, env2, depth)
        if isinstance(p, (And, Or, Implies)):
            return walk(p.left, t.left, env1, env2, depth) and walk(p.right, t.right, env1, env2, depth)
        if isinstance(p, (Forall, Exists)):
            return walk(p.body, t.body, {**env1, p.var: depth}, {**env2, t.var: depth}, depth + 1)
        raise TypeError(f"not a formula: {p!r}")

    return binding if walk(pattern, target, {}, {}, 0) else None


def negated_quantifier_view(f: Formula) -> Formula:
    """~(Ex)P as (Ax)~P and ~(Ax)P as (Ex)~P; identity elsewhere."""
    if isinstance(f, Not) and isinstance(f.body, Exists):
        return Forall(f.body.var, Not(f.body.body))
    if isinstance(f, Not) and isinstance(f.body, Forall):
        return Exists(f.body.var, Not(f.body.body))
    return f


class _Key(_Node):
    """An interned canonical key: the nested tuple of _canon in one node of
    the hash-consing table, so that equal keys are one object while any of
    them lives, and hashing one or comparing two costs O(1)."""

    __slots__ = _fields = ("canon",)
    _height = staticmethod(lambda canon: 1)
    canon: tuple


@lru_cache(maxsize=_CACHE_SIZE)
def canonical_key(f: Formula) -> _Key:
    """Key identifying formulas up to alpha-renaming, associativity and
    commutativity of & and |, and the negated-quantifier view.

    Double negation is deliberately NOT collapsed.  Keys are interned: two
    formulas have equal keys iff their keys are the same object, so keys
    compare by identity (`is`), and hash by it too.  Iterate no set of
    keys: its order would depend on memory addresses.
    """
    return _Key(_canon(f, ()))


def _canon_term(t: Term, env: tuple[str, ...]):
    if isinstance(t, Var):
        for i in range(len(env) - 1, -1, -1):
            if env[i] == t.name:
                return ("b", len(env) - 1 - i)
        return ("v", t.name)
    return ("t", t.fn, tuple(_canon_term(a, env) for a in t.args))


def _canon(f: Formula, env: tuple[str, ...]):
    if isinstance(f, Atom):
        return ("atom", f.pred, tuple(_canon_term(a, env) for a in f.args))
    if isinstance(f, Not):
        view = negated_quantifier_view(f)
        if view is not f:
            return _canon(view, env)
        return ("not", _canon(f.body, env))
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        parts = [_canon(p, env) for p in _flat(f, type(f))]
        parts.sort(key=repr)
        return (tag, tuple(parts))
    if isinstance(f, Implies):
        return ("imp", _canon(f.left, env), _canon(f.right, env))
    if isinstance(f, Forall):
        return ("forall", _canon(f.body, env + (f.var,)))
    if isinstance(f, Exists):
        return ("exists", _canon(f.body, env + (f.var,)))
    raise TypeError(f"not a formula: {f!r}")


def _flat(f: Formula, cls) -> Iterator[Formula]:
    if isinstance(f, cls):
        yield from _flat(f.left, cls)
        yield from _flat(f.right, cls)
    else:
        yield f


def rule_eq(f: Formula, g: Formula) -> bool:
    """The proof kernel's formula comparison; see canonical_key."""
    return f is g or canonical_key(f) is canonical_key(g)


@lru_cache(maxsize=_CACHE_SIZE)
def contradiction_keys(f: Formula) -> tuple:
    """Canonical keys of the formulas that contradict f: ~f, the body of f if
    f is a negation, and t if f is ~~~t, in that order, without repeats.  The
    search indexes by them, so a tuple keeps it deterministic."""
    keys = [canonical_key(Not(f))]
    if isinstance(f, Not):
        keys.append(canonical_key(f.body))
        if isinstance(f.body, Not) and isinstance(f.body.body, Not):
            keys.append(canonical_key(f.body.body.body))
    return tuple(dict.fromkeys(keys))


def flatten_or(f: Formula) -> list[Formula]:
    return list(_flat(f, Or))


def build_or(parts: list[Formula]) -> Formula:
    return reduce(lambda out, p: Or(p, out), reversed(parts))


def build_and(parts: list[Formula]) -> Formula:
    return reduce(lambda out, p: And(p, out), reversed(parts))


def neg(f: Formula) -> Formula:
    """~X, with one double negation removed: neg(~X) = X."""
    return f.body if isinstance(f, Not) else Not(f)


def imp_result(f: Implies) -> Formula:
    """The IMP rewrite: A1 & ... & Ak -> B becomes ~A1 | ... | ~Ak | B,
    nested to the right, with one double negation removed from each ~Ai."""
    out, stack = f.right, [f.left]
    while stack:  # the conjuncts from the last to the first
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.left, g.right)
        else:
            out = Or(g.body if isinstance(g, Not) else Not(g), out)
    return out


def de_morgan(f: Formula) -> Formula | None:
    """The DE.MORGAN rewrite: ~(A & B) becomes ~A | ~B and ~(A | B) becomes
    ~A & ~B, with one double negation removed from each side; None for any
    other formula."""
    if isinstance(f, Not) and isinstance(f.body, And):
        return Or(neg(f.body.left), neg(f.body.right))
    if isinstance(f, Not) and isinstance(f.body, Or):
        return And(neg(f.body.left), neg(f.body.right))
    return None


def distributions(f: Formula) -> list[Formula]:
    """The DISTRIBUTIVE-LAW rewrites of a disjunction: (A & B) | C becomes
    (A | C) & (B | C), and A | (B & C) becomes (A | B) & (A | C); the left
    one first, and none for a formula that is no such disjunction."""
    if not isinstance(f, Or):
        return []
    out: list[Formula] = []
    if isinstance(f.left, And):
        out.append(And(Or(f.left.left, f.right), Or(f.left.right, f.right)))
    if isinstance(f.right, And):
        out.append(And(Or(f.left, f.right.left), Or(f.left, f.right.right)))
    return out


def conjunct_members(f: Formula) -> list[Formula]:
    """Every subtree at a conjunctive position of f, breadth first."""
    out: list[Formula] = []
    queue = [f]
    for g in queue:
        if isinstance(g, And):
            out.extend((g.left, g.right))
            queue.extend((g.left, g.right))
    return out
