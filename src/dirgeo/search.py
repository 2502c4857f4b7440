"""Bounded forward-chaining proof search for the fragment's theorems.

The strategy mirrors the shape of the bundled derivations: strip the goal's
quantifier prefix to fresh v-variables, assume antecedents and the negations
of leading disjuncts (conditional-proof shape), then saturate forward under
US and the rules of kernel.RULE_ROWS, the kernel's own table, in its order
(IMP, MP, MT, LDS, RDS, DISTRIBUTIVE-LAW, SIMP, DE.MORGAN), instantiating
at terms drawn from the goal's eigenvariables and the subterms of active
formulas, each also wrapped in one extra rev, iterating the rev-nesting
bound upward.  When saturation stalls, stuck disjunctions are
case-split up to the nesting bound.  Everything is deterministic: fixed
iteration orders, no randomness, no wall-clock decisions.  A goal that is
one of the premises (up to alpha and AC) is cited, not searched for.

The bookkeeping costs what is new, not what was there before.  Each branch
scans a line for terms once, and rebuilds its sorted pool only when that
adds a base term; a line derived by a rule of kernel.RULE_ROWS takes its
terms from the lines it cites, so only premises, assumptions, US instances
and case assumptions are scanned.  Lines are indexed by their interned
canonical keys, so a dict operation on a key costs O(1).  A watermark
records how many universals have met every term of the pool the last
instantiation round used, so a round tries those universals only at the
terms new since then.  A case split does not copy the branch: it marks the
one context, and an undo trail takes back what the case added when it
returns, as in DPLL/CDCL solvers.

A proved result is reconstructed into a Proof object and re-checked by the
kernel before being returned; the prover never self-certifies.

Around the search, the finite-model finder refutes what it can, as the
semantic filter of Gelernter's geometry machine does.  Before searching,
prove looks for a countermodel of size <= 3, which takes at most a few
milliseconds.  A hit ends the call with status "refuted" and the structure
on the result, before any search line, so with empty SearchStats and no
limits.  This cannot turn a provable sequent into a refuted one while the
kernel is sound, since a proof makes the goal true in every model of the
premises.  The check runs only on sequents the structures interpret
(models.interprets): one with a defined atom or a symbol of a custom
signature is searched as it is.  A search that fails names the bounds that
cut it, in SearchResult.limits: max_lines, max_depth or max_term_depth, or
nesting when a formula it built would pass the node bound of
syntax.NestingError; prove never raises that error.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, fields

from .kernel import (
    ROWS_BY_CONNECTIVE,
    RULE_ROWS,
    TWO_LINE_RULES,
    Justification,
    Proof,
    ProofLine,
    Rewrite,
    Rule,
    check_proof,
)
from .models import Structure, find_countermodel, interprets
from .syntax import (
    App,
    Forall,
    Formula,
    Implies,
    NestingError,
    Or,
    Term,
    Var,
    _subst_one,
    atoms,
    bound_vars,
    canonical_key,
    flatten_or,
    free_vars,
    fresh_name,
    imp_result,
    neg,
    print_term,
    rule_eq,
    substitute,
    term_vars,
)

@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 2  # case-split nesting bound
    max_term_depth: int = 3  # rev-nesting bound on instantiation terms
    max_lines: int = 50000  # derived-formula budget for the whole call

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{f.name} must be a non-negative integer, got {value!r}")


@dataclass
class SearchStats:
    lines_generated: int = 0
    instantiations_tried: int = 0


@dataclass
class SearchResult:
    status: str  # proved | refuted | exhausted | budget-exceeded
    proof: Proof | None
    stats: SearchStats
    countermodel: Structure | None = None  # the structure that refutes the sequent
    limits: tuple[str, ...] = ()  # the SearchConfig bounds that cut a failed search

    @property
    def proved(self) -> bool:
        return self.status == "proved"


class _Budget(Exception):
    pass


# The bounds a failed search names, in the order it reports them (nesting: NestingError).
_LIMITS = ("max_lines", "max_depth", "max_term_depth", "nesting")

# The rules of kernel.RULE_ROWS only rearrange parts of the lines they cite,
# and a case assumption is one side of a disjunction already in the branch,
# so a line they derive has no atom, and so no term, that a cited line lacks.
_NO_NEW_TERMS = (*(row.rule for row in RULE_ROWS), Rule.CASE1, Rule.CASE2)


@dataclass
class _Node:
    formula: Formula
    rule: Rule
    cited: tuple["_Node", ...] = ()
    annot: tuple[tuple[Term, str], ...] = ()
    seq: int = 0
    extra: tuple["_Node", ...] = ()  # emission-only dependencies (case openings)


class _Engine:
    """Shared state for one prove() call."""

    def __init__(self, cfg: SearchConfig, branch_vars: frozenset[str]):
        self.cfg = cfg
        self.stats = SearchStats()
        self.seq = itertools.count(1)
        self.branch_vars = branch_vars
        self.limits: set[str] = set()  # bounds that cut the current deepening step
        self.on_branch: dict[Term, bool] = {}  # term -> term_vars(term) <= branch_vars

    def node(self, formula: Formula, rule: Rule, cited=(), annot=(), extra=()) -> _Node:
        self.stats.lines_generated += 1
        if self.stats.lines_generated > self.cfg.max_lines:
            raise _Budget()
        return _Node(formula, rule, tuple(cited), tuple(annot), next(self.seq), tuple(extra))


class _Context:
    """The branch being searched: canonical key -> node, and the major lines
    of kernel.TWO_LINE_RULES by the key of a minor line that fits.  A line
    is combined by the rows of kernel.ROWS_BY_CONNECTIVE for its connective,
    in their order.  A case split does not copy the context: it takes a
    mark(), adds its case and searches on, and undo() puts the context back
    to the mark."""

    def __init__(self, engine: _Engine):
        self.engine = engine
        self.nodes: dict = {}  # canonical key -> _Node, in the order of self.order
        self.order: list[_Node] = []
        self.majors: dict = {}  # minor key -> {row: [major nodes]} over TWO_LINE_RULES, in order
        self.universals: list[_Node] = []
        self.split_disjunctions: dict = {}  # keys already case-split -> None
        # Base instantiation terms of self.order[:scanned], plus the
        # eigenvariables, so that a goal whose eigenvariable occurs in no
        # line still gets instantiated at it.
        self.pool_terms: dict[Term, None] = {Var(v): None for v in sorted(engine.branch_vars)}
        self.scanned = 0
        self.pool: tuple[int, list[Term]] = (-1, [])  # (len(pool_terms) it was built from, pool)
        # universals[:crossed[0]] have been instantiated at every term of crossed[1]
        self.crossed: tuple[int, list[Term]] = (0, [])
        self.trail: list = []  # (key, row) of every append to majors, oldest first

    def mark(self) -> tuple:
        """A restore point for undo(): the length of each store that only
        grows, and the value of each scalar."""
        return (len(self.order), len(self.universals), len(self.split_disjunctions),
                len(self.pool_terms), len(self.trail), self.scanned, self.pool, self.crossed)

    def undo(self, mark: tuple) -> None:
        """Remove everything added since mark() and restore its scalars."""
        n_order, n_universals, n_split, n_terms, n_trail, self.scanned, self.pool, self.crossed = mark
        for _ in range(len(self.order) - n_order):
            self.nodes.popitem()  # dicts pop in LIFO order, in step with self.order
        del self.order[n_order:]
        del self.universals[n_universals:]
        for _ in range(len(self.split_disjunctions) - n_split):
            self.split_disjunctions.popitem()
        for _ in range(len(self.pool_terms) - n_terms):
            self.pool_terms.popitem()
        trail = self.trail
        for _ in range(len(trail) - n_trail):
            key, row = trail.pop()
            by_row = self.majors[key]
            by_row[row].pop()
            if not any(by_row.values()):
                del self.majors[key]

    def add(self, node: _Node, worklist) -> _Node:
        key = canonical_key(node.formula)
        if key in self.nodes:
            return self.nodes[key]
        self.nodes[key] = node
        self.order.append(node)
        worklist.append(node)
        return node

    # -- saturation ---------------------------------------------------------

    def saturate(self, target_key, term_depth: int, seed) -> _Node | None:
        """Forward closure; returns the node for target_key once it is
        added (every node enters through the worklist)."""
        worklist = deque(seed)
        while True:
            while worklist:
                self._combine(worklist.popleft(), worklist)
                hit = self.nodes.get(target_key)
                if hit is not None:
                    return hit
            if not self._instantiate_round(term_depth, worklist):
                return None

    def _combine(self, node: _Node, worklist) -> None:
        eng = self.engine
        f = node.formula

        if isinstance(f, Forall):
            self.universals.append(node)
        for row in ROWS_BY_CONNECTIVE.get(type(f), ()):
            if isinstance(row, Rewrite):
                for result in row.results(f):
                    self.add(eng.node(result, row.rule, (node,)), worklist)
                continue
            # this node as major line: index it, and use the minor lines already derived
            for key in row.keys(row.part(f)):
                by_row = self.majors.get(key)
                if by_row is None:
                    by_row = self.majors[key] = {r: [] for r in TWO_LINE_RULES}
                by_row[row].append(node)
                self.trail.append((key, row))
                minor = self.nodes.get(key)
                if minor is not None:
                    self.add(eng.node(row.conclusion(f), row.rule, (node, minor)), worklist)

        # this node as minor line of the major lines already derived
        by_row = self.majors.get(canonical_key(f))
        if by_row:
            for row, majors in by_row.items():
                for major in majors:
                    self.add(eng.node(row.conclusion(major.formula), row.rule, (major, node)), worklist)

    def _pool(self, term_depth: int) -> list[Term]:
        """Instantiation terms of the branch, in _term_sort_key order.

        Only lines added since the last call are scanned, skipping those
        of kernel.RULE_ROWS, and the last list is returned again when they
        add no base term.  A context is always pooled at one term_depth
        (each deepening step builds fresh contexts), and engine.limits is
        reset only per step, so the result and the max_term_depth cut
        match a rescan of the whole branch."""
        eng = self.engine
        seen = self.pool_terms
        on_branch = eng.on_branch

        def visit(t: Term):
            if t in seen:
                return
            inside = on_branch.get(t)
            if inside is None:
                inside = on_branch[t] = term_vars(t) <= eng.branch_vars
            if not inside:
                # an argument of a unary term is off the branch too; one of
                # several may not be, and undo may have taken it out of seen
                if isinstance(t, App) and len(t.args) > 1:
                    for a in t.args:
                        visit(a)
                return
            if t.height > term_depth + 1:  # the height counts the variable too
                eng.limits.add("max_term_depth")
                if isinstance(t, App):
                    visit(t.args[0])
                return
            seen[t] = None
            if isinstance(t, App):
                for a in t.args:
                    visit(a)

        for node in self.order[self.scanned:]:
            if node.rule in _NO_NEW_TERMS:
                continue
            for atom in atoms(node.formula):
                for t in atom.args:
                    visit(t)
        self.scanned = len(self.order)
        if self.pool[0] == len(seen):
            return self.pool[1]
        pool = dict(seen)
        for t in seen:
            wrapped = App("rev", (t,))
            if wrapped in pool:
                continue
            if wrapped.height > term_depth + 1:
                eng.limits.add("max_term_depth")
                continue
            pool[wrapped] = None
        self.pool = (len(seen), sorted(pool, key=_term_sort_key))
        return self.pool[1]

    def _instantiate_round(self, term_depth: int, worklist) -> bool:
        """Instantiate each universal at each pool term it has not met yet:
        the universals below the watermark at the terms new since the last
        round, the rest at the whole pool, in list order and pool order.
        A round adds no universal (only _combine does), so the watermark
        then covers them all.  With no new term, the round starts at the
        watermark: most rounds of a case branch try nothing else."""
        eng = self.engine
        crossed, done = self.crossed
        pool = self._pool(term_depth)
        if pool is done:
            fresh = []
        else:
            old = set(done)
            fresh = [t for t in pool if t not in old]
        added = False
        universals = self.universals
        for i in range(0 if fresh else crossed, len(universals)):
            uni = universals[i]
            body = uni.formula.body
            var = uni.formula.var
            for t in fresh if i < crossed else pool:
                eng.stats.instantiations_tried += 1
                inst = _subst_one(body, var, t)
                self.add(eng.node(inst, Rule.US, (uni,), ((t, var),)), worklist)
                added = True
        self.crossed = (len(universals), pool)
        return added


def _term_sort_key(t: Term):
    return (t.height, print_term(t))


# ---------------------------------------------------------------------------
# Goal decomposition: quantifier prefixes become fresh v-variables (restored
# by UG), implications and leading disjuncts become assumptions (restored by
# CP and CP+IMP).


@dataclass
class _Step:
    kind: str  # "ug" | "cp" | "cp_imp"
    assumption: Formula | None = None
    quantified: Formula | None = None


def _decompose(goal: Formula, taken: set[str]) -> tuple[list[_Step], list[Formula], Formula]:
    steps: list[_Step] = []
    assumptions: list[Formula] = []
    g = goal
    while True:
        if isinstance(g, Forall):
            steps.append(_Step("ug", quantified=g))
            sub: dict[str, Term] = {}
            while isinstance(g, Forall):
                sub[g.var] = Var(fresh_name("v", taken))
                taken.add(sub[g.var].name)
                g = g.body
            g = substitute(g, sub)
            continue
        if isinstance(g, Implies):
            steps.append(_Step("cp", assumption=g.left))
            assumptions.append(g.left)
            g = g.right
            continue
        if isinstance(g, Or):
            parts = flatten_or(g)
            for d in parts[:-1]:
                a = neg(d)
                steps.append(_Step("cp_imp", assumption=a))
                assumptions.append(a)
            g = parts[-1]
            continue
        return steps, assumptions, g


# ---------------------------------------------------------------------------


def _search_target(
    ctx: _Context, target_key, term_depth: int, cases_left: int, seed: list[_Node]
) -> _Node | None:
    hit = ctx.saturate(target_key, term_depth, seed)
    if hit is not None:
        return hit
    if cases_left <= 0:
        limits = ctx.engine.limits
        if "max_depth" not in limits and any(
            isinstance(n.formula, Or) and canonical_key(n.formula) not in ctx.split_disjunctions
            for n in ctx.order
        ):
            limits.add("max_depth")
        return None
    for disj in list(ctx.order):
        f = disj.formula
        if not isinstance(f, Or):
            continue
        dkey = canonical_key(f)
        if dkey in ctx.split_disjunctions:
            continue
        if canonical_key(f.left) in ctx.nodes or canonical_key(f.right) in ctx.nodes:
            continue  # not stuck: one side already holds
        ctx.split_disjunctions[dkey] = None
        eng = ctx.engine
        mark = ctx.mark()
        asms, hits = [], []  # each case's assumption and the target it reaches
        for side, rule in ((f.left, Rule.CASE1), (f.right, Rule.CASE2)):
            asms.append(eng.node(side, rule, (disj,)))
            wl: list[_Node] = []
            ctx.add(asms[-1], wl)
            hits.append(_search_target(ctx, target_key, term_depth, cases_left - 1, wl))
            ctx.undo(mark)
            if hits[-1] is None:
                break
        else:
            return eng.node(hits[0].formula, Rule.CASES, (disj, *hits), extra=tuple(asms))
    return None


def prove(premises: list[Formula], goal: Formula, cfg: SearchConfig | None = None) -> SearchResult:
    """Search for a kernel-valid proof of goal from the premises, unless a
    countermodel of size <= 3 refutes the sequent first."""
    cfg = cfg or SearchConfig()
    for f in list(premises) + [goal]:
        if free_vars(f):
            raise ValueError("premises and goal must be closed")

    given = next((p for p in premises if rule_eq(p, goal)), None)
    countermodel, limits = None, ()
    if given is not None:  # the goal is a premise up to alpha and AC: cite it
        status, stats = "proved", SearchStats()
        proof = Proof(list(premises), [ProofLine(1, given, Justification(Rule.PREMISE))], show=goal)
    else:
        proof, stats = None, SearchStats()
        try:  # a plan or a derived formula may pass the node bound
            if interprets(list(premises) + [goal]):
                countermodel = find_countermodel(premises, goal, 3)
            if countermodel is None:
                status, proof, stats, limits = _search(premises, goal, cfg)
            else:
                status = "refuted"
        except NestingError:
            status, limits = "budget-exceeded", ("nesting",)
    if proof is not None:
        report = check_proof(proof)
        if not report.valid:
            raise RuntimeError(
                f"internal error: search produced an invalid proof "
                f"(line {report.line}: {report.message})"
            )
    return SearchResult(status, proof, stats, countermodel, limits)


def _search(
    premises: list[Formula], goal: Formula, cfg: SearchConfig
) -> tuple[str, Proof | None, SearchStats, tuple[str, ...]]:
    taken: set[str] = set()
    for f in list(premises) + [goal]:
        taken |= bound_vars(f)
    seeded = frozenset(taken)
    steps, assumptions, target = _decompose(goal, taken)
    branch_vars = frozenset(taken) - seeded  # only the fresh eigenvariables
    engine = _Engine(cfg, branch_vars)
    target_key = canonical_key(target)

    premise_nodes = [_Node(p, Rule.PREMISE, seq=next(engine.seq)) for p in premises]
    assumption_nodes = [_Node(a, Rule.ASSUMED_PREMISE, seq=next(engine.seq)) for a in assumptions]

    try:
        for depth in range(min(1, cfg.max_term_depth), cfg.max_term_depth + 1):
            engine.limits = set()
            ctx = _Context(engine)
            wl: list[_Node] = []
            for n in premise_nodes + assumption_nodes:
                ctx.add(n, wl)
            hit = _search_target(ctx, target_key, depth, cfg.max_depth, wl)
            if hit is not None:
                proof = _emit(premises, goal, steps, assumption_nodes, hit, engine)
                return "proved", proof, engine.stats, ()
    except _Budget:
        engine.limits = {"max_lines"}
    except NestingError:
        engine.limits = {"nesting"}
    limits = tuple(l for l in _LIMITS if l in engine.limits)
    return ("budget-exceeded" if limits else "exhausted"), None, engine.stats, limits


def _emit(
    premises: list[Formula],
    goal: Formula,
    steps: list[_Step],
    assumption_nodes: list[_Node],
    hit: _Node,
    engine: _Engine,
) -> Proof:
    needed: dict[int, _Node] = {}

    def collect(n: _Node):
        if n.seq in needed:
            return
        needed[n.seq] = n
        for c in n.cited:
            collect(c)
        for c in n.extra:
            collect(c)

    collect(hit)
    for n in assumption_nodes:  # assumptions must appear even if unused
        collect(n)

    ordered = [needed[s] for s in sorted(needed)]
    numbers: dict[int, int] = {}
    lines: list[ProofLine] = []

    for n in ordered:
        numbers[n.seq] = len(lines) + 1
        cited = tuple(numbers[c.seq] for c in n.cited)
        lines.append(ProofLine(len(lines) + 1, n.formula, Justification(n.rule, cited, n.annot)))

    # unwind the goal plan inside-out, each line citing the one before
    current, formula = numbers[hit.seq], hit.formula
    for step in reversed(steps):
        if step.kind == "ug":
            restated = [(step.quantified, Rule.UG)]
        else:
            impl = Implies(step.assumption, formula)
            restated = [(impl, Rule.CP)]
            if step.kind == "cp_imp":
                restated.append((imp_result(impl), Rule.IMP))
        for formula, rule in restated:
            lines.append(ProofLine(len(lines) + 1, formula, Justification(rule, (current,))))
            current = len(lines)
    return Proof(list(premises), lines, show=goal)


# ---------------------------------------------------------------------------
# Staged proving: derive lemmas first, then inline them so the emitted
# artifact is a single kernel-valid script over the original premises.


def prove_with_lemmas(
    premises: list[Formula],
    lemmas: list[tuple[list[Formula], Formula]],
    goal: Formula,
    cfg: SearchConfig | None = None,
) -> SearchResult:
    """Prove each (lemma premises, lemma goal) then the goal with the lemmas
    available, and merge everything into one proof from `premises`.

    Lemma premises must be among `premises`.  A lemma that is not proved
    ends the call with its own result: then a "refuted" status and its
    countermodel are the lemma's, not the goal's.
    """
    cfg = cfg or SearchConfig()
    stats = SearchStats()
    lemma_proofs: list[Proof] = []
    lemma_goals: list[Formula] = []
    for lemma_premises, lemma_goal in lemmas:
        for p in lemma_premises:
            if not any(rule_eq(p, q) for q in premises):
                raise ValueError("lemma premise is not among the main premises")
        r = prove(lemma_premises, lemma_goal, cfg)
        _merge_stats(stats, r.stats)
        if not r.proved:
            r.stats = stats
            return r
        lemma_proofs.append(r.proof)
        lemma_goals.append(lemma_goal)

    r = prove(list(premises) + lemma_goals, goal, cfg)
    _merge_stats(stats, r.stats)
    if not r.proved:
        r.stats = stats
        return r

    merged = _inline(premises, lemma_proofs, r.proof, goal)
    report = check_proof(merged)
    if not report.valid:
        raise RuntimeError(
            f"internal error: lemma inlining produced an invalid proof "
            f"(line {report.line}: {report.message})"
        )
    return SearchResult("proved", merged, stats)


def _merge_stats(acc: SearchStats, extra: SearchStats) -> None:
    acc.lines_generated += extra.lines_generated
    acc.instantiations_tried += extra.instantiations_tried


def _inline(
    premises: list[Formula], lemma_proofs: list[Proof], main: Proof, goal: Formula
) -> Proof:
    lines = [ProofLine(i, p, Justification(Rule.PREMISE)) for i, p in enumerate(premises, 1)]
    # canonical key -> merged line number: the premises, then lemma conclusions
    known = {canonical_key(l.formula): l.number for l in lines}
    for proof in lemma_proofs + [main]:
        mapping: dict[int, int] = {}
        for l in proof.lines:
            if l.just.rule is Rule.PREMISE:
                num = known.get(canonical_key(l.formula))
                if num is None:
                    raise RuntimeError("premise missing from merged premises")
                mapping[l.number] = num
                continue
            cited = tuple(mapping[c] for c in l.just.cited)
            lines.append(
                ProofLine(len(lines) + 1, l.formula, Justification(l.just.rule, cited, l.just.annot))
            )
            mapping[l.number] = len(lines)
        known.setdefault(canonical_key(proof.lines[-1].formula), mapping[proof.lines[-1].number])
    conclusion = mapping[main.lines[-1].number]
    if conclusion != len(lines):  # the goal is a premise or a lemma: restate it last
        lines.append(
            ProofLine(len(lines) + 1, main.lines[-1].formula, Justification(Rule.SAME, (conclusion,)))
        )
    return Proof(list(premises), lines, show=goal)
