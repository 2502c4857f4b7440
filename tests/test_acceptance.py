"""Acceptance suite: the build's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
on a green run; pytest shows captured output on failures anyway).
"""

import dataclasses
import time

import pytest

from dirgeo.corpus import corpus_ids, load
from dirgeo.geometry import axiom, defined_form, expand_defs, w_decomposition
from dirgeo.kernel import Proof, check_proof
from dirgeo.models import equivalent_on_all, eval_formula, find_countermodel
from dirgeo.search import SearchConfig, prove, prove_with_lemmas
from dirgeo.syntax import build_and, canonical_key, rule_eq
from helpers import direction_circle


def _report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_1_golden_corpus():
    """All five transcripts (six entries) check valid with the declared
    sequents, at the transcribed line counts, in under one second."""
    expected = {"A": 17, "B1": 16, "B2": 29, "C": 44, "D": 17, "E": 52}
    started = time.monotonic()
    for cid in corpus_ids():
        proof, entry = load(cid)
        rep = check_proof(proof)
        assert rep.valid, f"{cid}: line {rep.line}: {rep.message}"
        assert len(proof.lines) == expected[cid]
        declared = entry.declared_premises()
        assert all(rule_eq(a, b) for a, b in zip(rep.premises, declared))
        assert len(rep.premises) == len(declared)
        assert rule_eq(rep.conclusion, entry.declared_conclusion())
    elapsed = time.monotonic() - started
    _report(1, elapsed < 1.0, f"6/6 valid, {elapsed * 1000:.0f} ms (< 1 s)")


def test_criterion_2_mutation_suite():
    """Every single-line formula substitution drawn from the same proof's
    other (canonically distinct) formulas is rejected; zero false accepts."""
    total = false_accepts = 0
    for cid in corpus_ids():
        proof, _ = load(cid)
        keys = [canonical_key(l.formula) for l in proof.lines]
        pool = {}
        for k, l in zip(keys, proof.lines):
            pool.setdefault(k, l.formula)
        for i, line in enumerate(proof.lines):
            for k, formula in pool.items():
                if k == keys[i]:
                    continue
                mutated = list(proof.lines)
                mutated[i] = dataclasses.replace(line, formula=formula)
                rep = check_proof(Proof(proof.premises, mutated, proof.show))
                total += 1
                if rep.valid:
                    false_accepts += 1
    _report(2, false_accepts == 0, f"{total} mutations, {false_accepts} false accepts")


@pytest.mark.parametrize(
    "premises,goal,cfg",
    [
        (("I6",), "W1", SearchConfig(max_depth=2, max_term_depth=1)),
        (("I6",), "W4", SearchConfig(max_depth=2, max_term_depth=1)),
        (("I5", "ODO"), "OO", SearchConfig(max_depth=1, max_term_depth=1)),
    ],
)
def test_criterion_3_rederivation_direct(premises, goal, cfg):
    """Theorem-1 re-derivations, each within a 10-second budget."""
    started = time.monotonic()
    r = prove([axiom(p) for p in premises], axiom(goal), cfg)
    elapsed = time.monotonic() - started
    ok = r.proved and elapsed < 10.0 and check_proof(r.proof).valid
    _report(3, ok, f"{goal} from {','.join(premises)}: {r.status}, {elapsed:.2f}s (< 10 s)")


@pytest.mark.parametrize("goal", ["W2", "W3"])
def test_criterion_3_rederivation_staged(goal):
    """W2 and W3 in staged mode (OO lemma first), within 10 seconds each."""
    premises = [axiom("I5"), axiom("I6"), axiom("ODO")]
    started = time.monotonic()
    r = prove_with_lemmas(
        premises,
        [([axiom("I5"), axiom("ODO")], axiom("OO"))],
        axiom(goal),
        SearchConfig(max_depth=2, max_term_depth=2),
    )
    elapsed = time.monotonic() - started
    rep = check_proof(r.proof) if r.proved else None
    ok = (
        r.proved
        and elapsed < 10.0
        and rep.valid
        and all(rule_eq(a, b) for a, b in zip(rep.premises, premises))
        and rule_eq(rep.conclusion, axiom(goal))
    )
    _report(3, ok, f"{goal} staged via OO: {r.status}, {elapsed:.2f}s (< 10 s)")


def test_criterion_4_theorem_2():
    """I6 from {I7, I8, ODO} within five minutes, else the corpus proof E
    plus the criterion-6 model check stand; report which path succeeded."""
    started = time.monotonic()
    r = prove(
        [axiom("I7"), axiom("I8"), axiom("ODO")],
        axiom("I6"),
        SearchConfig(max_depth=2, max_term_depth=3),
    )
    elapsed = time.monotonic() - started
    if r.proved and elapsed < 300.0 and check_proof(r.proof).valid:
        _report(4, True, f"search path succeeded: {len(r.proof.lines)} lines, {elapsed:.2f}s (< 300 s)")
        return
    # fallback path: transcript E + exhaustive model check
    proof, _ = load("E")
    e_ok = check_proof(proof).valid
    m_ok = find_countermodel([axiom("I7"), axiom("I8"), axiom("ODO")], axiom("I6"), 3) is None
    _report(4, e_ok and m_ok, "fallback path: transcript E valid + no countermodel up to size 3")


def test_criterion_5_redundancy_countermodels():
    """{I5,I6} has countermodels to W2 and W3 at size <= 4; the proved
    entailments have none up to size 3; each size-3 query under 10 s."""
    details = []
    cm2 = find_countermodel([axiom("I5"), axiom("I6")], axiom("W2"), 4)
    cm3 = find_countermodel([axiom("I5"), axiom("I6")], axiom("W3"), 4)
    ok = cm2 is not None and cm2.size <= 4 and cm3 is not None and cm3.size <= 4
    details.append(f"W2 refuted at size {cm2.size if cm2 else '?'}")
    details.append(f"W3 refuted at size {cm3.size if cm3 else '?'}")
    for cm, goal in ((cm2, "W2"), (cm3, "W3")):
        ok = ok and eval_formula(cm, axiom("I5")) and eval_formula(cm, axiom("I6"))
        ok = ok and not eval_formula(cm, axiom(goal))
    for premises, goal in [
        (("I6",), "W1"),
        (("I6",), "W4"),
        (("I5", "I6", "ODO"), "W2"),
        (("I5", "I6", "ODO"), "W3"),
    ]:
        started = time.monotonic()
        none_found = find_countermodel([axiom(p) for p in premises], axiom(goal), 3) is None
        elapsed = time.monotonic() - started
        ok = ok and none_found and elapsed < 10.0
        details.append(f"{goal} from {','.join(premises)}: none<=3 in {elapsed * 1000:.0f} ms")
    _report(5, ok, "; ".join(details))


def test_criterion_6_equivalence_oracles():
    """Exhaustive size <= 3 equivalences and the direction-circle model."""
    checks = {
        "I7 == W1&W2&W3&W4": equivalent_on_all(axiom("I7"), build_and(w_decomposition()), 3),
        "I7 == expanded convergence form": equivalent_on_all(
            axiom("I7"), expand_defs(axiom("I7conv")), 3
        ),
        "no countermodel to I6 from I7,I8,ODO": find_countermodel(
            [axiom("I7"), axiom("I8"), axiom("ODO")], axiom("I6"), 3
        )
        is None,
    }
    for name in ("W1", "W2", "W3", "W4"):
        checks[f"{name} == its Dir/Opp form"] = equivalent_on_all(
            axiom(name), expand_defs(defined_form(name)), 3
        )
    dc = direction_circle(4)
    checks["Z4 direction circle satisfies I5,I6,I7,I8,ODO"] = all(
        eval_formula(dc, axiom(n)) for n in ("I5", "I6", "I7", "I8", "ODO")
    )
    failing = [k for k, v in checks.items() if not v]
    _report(6, not failing, f"{len(checks)} oracles" + (f"; FAILING: {failing}" if failing else ""))


def test_criterion_7_soundness_cross_check():
    """No kernel-certified proof (corpus or search-found) has a size <= 3
    countermodel to its sequent."""
    sequents = []
    for cid in corpus_ids():
        proof, _ = load(cid)
        rep = check_proof(proof)
        assert rep.valid
        sequents.append((cid, list(rep.premises), rep.conclusion))
    searches = [
        (("I6",), "W1", SearchConfig(max_depth=2, max_term_depth=1)),
        (("I6",), "W4", SearchConfig(max_depth=2, max_term_depth=1)),
        (("I5", "ODO"), "OO", SearchConfig(max_depth=1, max_term_depth=1)),
        (("I5", "I6", "ODO"), "W2", SearchConfig(max_depth=2, max_term_depth=2)),
        (("I5", "I6", "ODO"), "W3", SearchConfig(max_depth=2, max_term_depth=2)),
        (("I7", "I8", "ODO"), "I6", SearchConfig(max_depth=2, max_term_depth=3)),
    ]
    for premises, goal, cfg in searches:
        r = prove([axiom(p) for p in premises], axiom(goal), cfg)
        assert r.proved, f"{goal} from {premises}"
        rep = check_proof(r.proof)
        assert rep.valid
        sequents.append((f"search:{goal}", list(rep.premises), rep.conclusion))
    bad = []
    for name, premises, conclusion in sequents:
        if find_countermodel(premises, conclusion, 3) is not None:
            bad.append(name)
    _report(7, not bad, f"{len(sequents)} certified sequents model-checked to size 3"
            + (f"; VIOLATIONS: {bad}" if bad else ""))
