"""Bundled derivation transcripts and the golden sequents they witness.

Six entries: A (I6 implies W1), B1 (the OO lemma from I5 and ODO), B2 (W2
from I5, OO, I6), C (W3 from I5, I6, ODO), D (I6 implies W4), and E (I6
from I8, ODO, I7).  Every entry but B1 assumes its premises as one
conjunction, nested left in the listed order, that the final line
discharges, so its certified sequent is |- (premises -> goal).  B1 uses
separate PREMISE lines.

The corpus directory can be overridden with the DIRGEO_CORPUS_DIR
environment variable (files named <id>.prf).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from pathlib import Path

from ..geometry import axiom
from ..kernel import Proof, parse_proof_script
from ..syntax import And, Atom, Exists, Formula, Implies, Not, Var

ENV_CORPUS_DIR = "DIRGEO_CORPUS_DIR"

# I5 in the transcripts' negated-existential premise spelling.
I5_NEG_EXISTS: Formula = Not(Exists("x", Atom("UNDIR", (Var("x"), Var("x")))))


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    premise_names: tuple[str, ...]  # sequent-level premises (by catalog name)
    goal_name: str
    expected_lines: int
    theorem: int  # which headline result the entry helps witness (1 or 2)

    def declared_premises(self) -> list[Formula]:
        """Premise formulas of the checked sequent (PREMISE lines)."""
        if self.id == "B1":
            return [axiom("ODO"), I5_NEG_EXISTS]
        return []

    def declared_conclusion(self) -> Formula:
        """Conclusion formula of the checked sequent."""
        goal = axiom(self.goal_name)
        if self.declared_premises():
            return goal
        return Implies(reduce(And, map(axiom, self.premise_names)), goal)


ENTRIES: dict[str, CorpusEntry] = {
    e.id: e
    for e in (
        CorpusEntry("A", ("I6",), "W1", 17, theorem=1),
        CorpusEntry("B1", ("I5", "ODO"), "OO", 16, theorem=1),
        CorpusEntry("B2", ("I5", "OO", "I6"), "W2", 29, theorem=1),
        CorpusEntry("C", ("I5", "I6", "ODO"), "W3", 44, theorem=1),
        CorpusEntry("D", ("I6",), "W4", 17, theorem=1),
        CorpusEntry("E", ("I8", "ODO", "I7"), "I6", 52, theorem=2),
    )
}


def corpus_ids() -> tuple[str, ...]:
    return tuple(ENTRIES)


def script_text(entry_id: str) -> str:
    override = os.environ.get(ENV_CORPUS_DIR)
    if override:
        return (Path(override) / f"{entry_id}.prf").read_text()
    return resources.files("dirgeo.corpus").joinpath(f"data/{entry_id}.prf").read_text()


def load(entry_id: str) -> tuple[Proof, CorpusEntry]:
    """Parse an entry; the proof's premises/conclusion match the declared
    sequent (check_proof certifies it)."""
    entry = ENTRIES[entry_id]
    proof = parse_proof_script(script_text(entry_id))
    return proof, entry
