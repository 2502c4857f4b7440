import pytest

from dirgeo.corpus import ENTRIES, I5_NEG_EXISTS, corpus_ids, load, script_text
from dirgeo.geometry import axiom
from dirgeo.kernel import check_proof
from dirgeo.syntax import And, Implies, rule_eq


EXPECTED_LINES = {"A": 17, "B1": 16, "B2": 29, "C": 44, "D": 17, "E": 52}


class TestEntries:
    def test_ids(self):
        assert set(corpus_ids()) == set(EXPECTED_LINES)

    @pytest.mark.parametrize("cid", sorted(EXPECTED_LINES))
    def test_loads_with_expected_length(self, cid):
        proof, entry = load(cid)
        assert len(proof.lines) == EXPECTED_LINES[cid] == entry.expected_lines

    @pytest.mark.parametrize("cid", sorted(EXPECTED_LINES))
    def test_checks_valid_with_declared_sequent(self, cid):
        proof, entry = load(cid)
        rep = check_proof(proof)
        assert rep.valid, f"{cid}: {rep.message}"
        declared = entry.declared_premises()
        assert len(rep.premises) == len(declared)
        assert all(rule_eq(a, b) for a, b in zip(rep.premises, declared))
        assert rule_eq(rep.conclusion, entry.declared_conclusion())

    @pytest.mark.parametrize("cid", sorted(EXPECTED_LINES))
    def test_declared_sequent_is_the_written_out_node(self, cid):
        # The sequents spelt out by hand, compared by identity: nodes are
        # hash-consed, so `is` pins the exact shape, not just rule_eq.
        i5, i6, i7, i8, odo, oo = (axiom(n) for n in ("I5", "I6", "I7", "I8", "ODO", "OO"))
        sequents = {
            "A": ([], Implies(i6, axiom("W1"))),
            "B1": ([odo, I5_NEG_EXISTS], oo),
            "B2": ([], Implies(And(And(i5, oo), i6), axiom("W2"))),
            "C": ([], Implies(And(And(i5, i6), odo), axiom("W3"))),
            "D": ([], Implies(i6, axiom("W4"))),
            "E": ([], Implies(And(And(i8, odo), i7), i6)),
        }
        premises, conclusion = sequents[cid]
        declared = ENTRIES[cid].declared_premises()
        assert len(declared) == len(premises)
        assert all(a is b for a, b in zip(declared, premises))
        assert ENTRIES[cid].declared_conclusion() is conclusion

    def test_b1_premise_is_negated_existential_spelling(self):
        proof, _ = load("B1")
        assert proof.premises[1] == I5_NEG_EXISTS
        assert rule_eq(I5_NEG_EXISTS, axiom("I5"))


class TestTheoremClosure:
    def test_theorem1_obligations_covered_exactly(self):
        # the W-decomposition of I7 is rederivable from {I5, I6, ODO}:
        # every conjunct has a witnessing entry, OO is the B-chain lemma
        obligations = {
            ("I6",): {"W1", "W4"},
            ("I5", "ODO"): {"OO"},
            ("I5", "OO", "I6"): {"W2"},
            ("I5", "I6", "ODO"): {"W3"},
        }
        witnessed = {}
        for cid, entry in ENTRIES.items():
            if entry.theorem == 1:
                witnessed.setdefault(entry.premise_names, set()).add(entry.goal_name)
        assert {tuple(k): v for k, v in witnessed.items()} == obligations
        covered_goals = set().union(*witnessed.values())
        assert covered_goals == {"W1", "W2", "W3", "W4", "OO"}
        # lemma chaining is sound: OO's premises and W2's premises stay
        # inside {I5, I6, ODO} once OO is discharged by B1
        assert set(ENTRIES["B2"].premise_names) - {"OO"} <= {"I5", "I6", "ODO"}

    def test_theorem2_obligation(self):
        twos = [e for e in ENTRIES.values() if e.theorem == 2]
        assert len(twos) == 1 and twos[0].id == "E"
        assert set(twos[0].premise_names) == {"I7", "I8", "ODO"}
        assert twos[0].goal_name == "I6"


class TestCorpusDirOverride:
    def test_env_override_and_parse_failure_reporting(self, tmp_path, monkeypatch):
        for cid in corpus_ids():
            (tmp_path / f"{cid}.prf").write_text(script_text(cid))
        broken = script_text("A").replace("MP 5 2", "MP 5")
        (tmp_path / "A.prf").write_text(broken)
        monkeypatch.setenv("DIRGEO_CORPUS_DIR", str(tmp_path))
        proof, _ = load("A")
        rep = check_proof(proof)
        assert not rep.valid and rep.line == 6
        proof_d, _ = load("D")
        assert check_proof(proof_d).valid
