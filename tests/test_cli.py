import argparse
import io
import json
import sys
from dataclasses import replace

import pytest

from dirgeo import cli
from dirgeo.cli import (
    EXIT_CHECK_FAILED,
    EXIT_EXPECTATION,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_SEARCH_FAILED,
    build_parser,
    main,
)
from dirgeo.corpus import corpus_ids, script_text
from dirgeo.models import Structure
from dirgeo.search import SearchConfig


@pytest.fixture
def corpus_files(tmp_path):
    paths = []
    for cid in corpus_ids():
        p = tmp_path / f"{cid}.prf"
        p.write_text(script_text(cid))
        paths.append(str(p))
    return paths


def _restate_last(script: str) -> str:
    """The script with one more line, a SAME of its last."""
    number, record = script.rstrip("\n").splitlines()[-1].split(". ", 1)
    formula = record.rsplit("  ", 1)[0]
    return script + f"{int(number) + 1}. {formula}  SAME {number}\n"


class TestCheck:
    def test_all_corpus_files_valid(self, corpus_files, capsys):
        assert main(["check", *corpus_files]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("valid") >= 6 and "|-" in out

    def test_invalid_proof_exits_1(self, tmp_path, capsys):
        bad = script_text("A").replace("8. UNDIR v2 v3", "8. UNDIR v2 v2")
        p = tmp_path / "bad.prf"
        p.write_text(bad)
        assert main(["check", str(p)]) == EXIT_CHECK_FAILED
        assert "line 8" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path):
        p = tmp_path / "broken.prf"
        p.write_text("1. UNDIR v1\n")
        assert main(["check", str(p)]) == EXIT_PARSE_ERROR

    def test_cite_too_long_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "long.prf"
        p.write_text("1. UNDIR x y  SAME " + "1" * 5000 + "\n")
        assert main(["check", str(p)]) == EXIT_PARSE_ERROR
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"parse-error {p}  cite of 5000 digits is too long (script line 1)"

    @pytest.mark.parametrize("depth", [400, 3000])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, depth):
        # 3000 levels overflow the parser; 400 parse but overflow the check
        formula = "~" * depth + "UNDIR x x"
        p = tmp_path / "deep.prf"
        p.write_text(f"PREMISE: {formula}\n1. {formula}  PREMISE\n")
        assert main(["check", str(p)]) == EXIT_PARSE_ERROR
        out = capsys.readouterr().out
        assert "parse-error" in out and "formula nested too deeply" in out

    # position: where the undecodable script stands among the two files checked
    @pytest.mark.parametrize("position", [1, 2])
    def test_non_utf8_script_is_a_parse_error(self, tmp_path, corpus_files, capsys, position):
        bad = tmp_path / "latin1.prf"
        bad.write_bytes(b"\xff")
        files = [corpus_files[0]]
        files.insert(position - 1, str(bad))
        code = main(["check", *files])
        assert code == EXIT_PARSE_ERROR
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3 and out[position - 1].startswith(f"parse-error {bad}  ")

    def test_non_utf8_stdin_is_a_parse_error(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
        assert main(["check", "-"]) == EXIT_PARSE_ERROR
        assert "parse-error -  'utf-8' codec can't decode byte 0xff" in capsys.readouterr().out

    def test_derivation_too_deep_is_one_invalid_line(self, tmp_path, capsys):
        # B is a balanced & of 1,024 atoms in brackets 10 deep, so the text
        # parses; the IMP result of line 2 would be a chain of 1,025
        # disjuncts, past the node bound.
        def balanced(k):
            return "UNDIR x x" if k == 0 else f"[{balanced(k - 1)} & {balanced(k - 1)}]"

        b = balanced(10)
        p = tmp_path / "imp.prf"
        p.write_text(
            f"PREMISE: (Ax)[{b} -> UNDIR x x]\n1. (Ax)[{b} -> UNDIR x x]  PREMISE\n"
            f"2. {b} -> UNDIR x x  US 1\n3. UNDIR x x  IMP 2\n"
        )
        assert main(["check", str(p)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"invalid  {p}  line 3 [rule]: IMP: formula nested too deeply"
        assert len(out) == 2

    @pytest.fixture
    def bad_then_good(self, tmp_path):
        bad = tmp_path / "bad.prf"
        bad.write_text(script_text("A").replace("8. UNDIR v2 v3", "8. UNDIR v2 v2"))
        good = tmp_path / "good.prf"
        good.write_text(script_text("D"))
        return [str(bad), str(good)]

    def test_reports_every_script(self, bad_then_good, capsys):
        assert main(["check", *bad_then_good]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert out[0].startswith(f"invalid  {bad_then_good[0]}  line 8")
        assert out[1].startswith(f"valid    {bad_then_good[1]}  ")
        assert out[2].startswith("check: fail (exit 1)")

    def test_records_format(self, corpus_files, capsys):
        assert main(["check", corpus_files[0], "--format", "records"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(l) for l in lines]
        assert records[0]["status"] == "valid"
        assert records[-1]["exit_code"] == EXIT_OK


class TestProve:
    def test_prove_pipes_into_check(self, tmp_path, capsys):
        out = tmp_path / "w1.prf"
        assert main(["prove", "--from", "I6", "--goal", "W1"]) == EXIT_OK
        out.write_text(capsys.readouterr().out)
        assert main(["check", str(out)]) == EXIT_OK

    def test_defined_relations_round_trip(self, monkeypatch, capsys):
        # I7conv is written with CON; prove emits it expanded, which check reads
        assert main(["prove", "--from", "I7conv,I8", "--goal", "I7conv"]) == EXIT_OK
        script = capsys.readouterr().out
        assert "CON" not in script
        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        assert main(["check", "-"]) == EXIT_OK

    def test_prove_writes_script_to_stdout(self, capsys):
        assert main(["prove", "--from", "I5,ODO", "--goal", "OO"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PREMISE:" in out and "UG" in out

    def test_unprovable_exits_3(self, capsys):
        code = main(["prove", "--from", "I6", "--goal", "W2", "--max-lines", "2000",
                     "--max-term-depth", "1"])
        assert code == EXIT_SEARCH_FAILED

    def test_refuted_exits_3_with_the_structure(self, capsys):
        code = main(["prove", "--from", "I6", "--goal", "W2", "--max-lines", "8000"])
        assert code == EXIT_SEARCH_FAILED
        out, err = capsys.readouterr()
        assert out == ""
        report = err.splitlines()
        assert report[0].startswith("refuted  W2  size=2 rev=[0 0] undir={(0,1), (1,0)}, ")
        assert " generated=0 " in report[0] and len(report) == 2

    def test_refuted_record(self, capsys):
        code = main(["prove", "--from", "I6", "--goal", "W2", "--format", "records"])
        assert code == EXIT_SEARCH_FAILED
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["status"] == "refuted"
        assert record["countermodel"] == {"size": 2, "rev": [0, 0], "undir": [[0, 1], [1, 0]]}

    def test_refuted_at_size_3_before_any_search(self, capsys):
        """W1 |- W3 has no countermodel of size <= 2 and fails the default
        search; the size-3 scan refutes it before any line is generated."""
        code = main(["prove", "--from", "W1", "--goal", "W3", "--format", "records"])
        assert code == EXIT_SEARCH_FAILED
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert (record["status"], record["countermodel"]["size"]) == ("refuted", 3)
        assert "limit" not in record and " generated=0 " in record["detail"]

    @pytest.mark.parametrize("fmt", ["text", "records"])
    def test_failure_names_the_bound(self, capsys, fmt):
        code = main(["prove", "--from", "I7,I8,ODO", "--goal", "I6", "--max-lines", "100",
                     "--format", fmt])
        assert code == EXIT_SEARCH_FAILED
        first = capsys.readouterr().err.splitlines()[0]
        if fmt == "text":
            assert first.startswith("budget-exceeded I6  ") and first.endswith(" limit=max_lines")
        else:
            record = json.loads(first)
            assert (record["status"], record["limit"]) == ("budget-exceeded", ["max_lines"])
            assert "countermodel" not in record

    def test_records_are_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            assert main(["prove", "--from", "I6", "--goal", "W1", "--format", "records"]) == EXIT_OK
            *items, summary = map(json.loads, capsys.readouterr().err.splitlines())
            assert summary["item"] is None and "elapsed" in summary
            runs.append(items)
        assert runs[0] == runs[1] and len(runs[0]) == 1
        assert runs[0][0]["status"] == "proved" and "wall=" not in runs[0][0]["detail"]

    def test_unknown_name_exits_2(self):
        assert main(["prove", "--from", "I6", "--goal", "NOPE"]) == EXIT_PARSE_ERROR

    @pytest.mark.parametrize(
        "argv, name",
        [(["prove", "--goal", ""], "''"), (["prove", "--goal", ","], "','"),
         (["models", "--goal", ","], "','"), (["prove", "--goal", "W1,W2"], "'W1,W2'")],
    )
    def test_goal_is_exactly_one_name(self, capsys, argv, name):
        assert main(argv + ["--from", "I6"]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        report = (captured.err if argv[0] == "prove" else captured.out).splitlines()
        assert report[0].endswith(f"  unknown axiom name {name}") and len(report) == 2

    @pytest.mark.parametrize("command", ["prove", "models"])
    def test_unknown_premise_reported_under_its_name(self, capsys, command):
        assert main([command, "--from", "I6,NOPE", "--goal", "W1"]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        report = (captured.err if command == "prove" else captured.out).splitlines()
        assert report[0] == "error    NOPE  unknown axiom name 'NOPE'" and len(report) == 2

    def test_theorem2_search(self, tmp_path, capsys):
        out = tmp_path / "i6.prf"
        code = main(["prove", "--from", "I7,I8,ODO", "--goal", "I6", "--max-term-depth", "3"])
        assert code == EXIT_OK
        out.write_text(capsys.readouterr().out)
        assert main(["check", str(out)]) == EXIT_OK


class TestModels:
    def test_counter_expected_and_found(self, capsys):
        code = main(["models", "--from", "I5,I6", "--goal", "W2",
                     "--max-size", "4", "--expect-counter"])
        assert code == EXIT_OK
        assert "size=2" in capsys.readouterr().out

    def test_none_expected_and_none_found(self):
        assert main(["models", "--from", "I6", "--goal", "W4",
                     "--max-size", "3", "--expect-none"]) == EXIT_OK

    def test_expectation_mismatch_exits_4(self):
        assert main(["models", "--from", "I5,I6,ODO", "--goal", "W3",
                     "--max-size", "3", "--expect-counter"]) == EXIT_EXPECTATION
        assert main(["models", "--from", "I5,I6", "--goal", "W2",
                     "--max-size", "4", "--expect-none"]) == EXIT_EXPECTATION

    def test_record_output(self, capsys):
        argv = ["models", "--from", "I5,I6", "--goal", "W2", "--max-size", "2"]
        assert main(argv + ["--format", "records"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["status"] == "countermodel"
        assert record["countermodel"] == {"size": 2, "rev": [0, 0], "undir": [[0, 1], [1, 0]]}
        assert record["detail"] == "size=2 rev=[0 0] undir={(0,1), (1,0)}"
        assert main(argv) == EXIT_OK  # the text form shows the structure, not its record
        assert capsys.readouterr().out.startswith(
            "countermodel I5,I6 |= W2  size=2 rev=[0 0] undir={(0,1), (1,0)}\n"
        )

    def test_jobs_same_answer(self, capsys):
        # The benchmark's models workload still passes --jobs 2; it is ignored.
        argv = ["models", "--from", "I6", "--goal", "W1", "--max-size", "4", "--format", "records"]
        answers = []
        for extra in (["--jobs", "2"], []):
            assert main(argv + extra) == EXIT_OK
            records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
            answers.append([{k: v for k, v in r.items() if k != "elapsed"} for r in records])
        assert answers[0] == answers[1]
        assert answers[0][0]["status"] == "no-countermodel"

    # --jobs is accepted and ignored; the size bound is checked either way
    @pytest.mark.parametrize("size", ["0", "5"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_max_size_outside_bound_exits_2(self, capsys, size, jobs):
        code = main(["models", "--from", "I6", "--goal", "W1", "--max-size", size,
                     "--jobs", jobs])
        assert code == EXIT_PARSE_ERROR
        error = capsys.readouterr().out.splitlines()[0]
        assert "1..4" in error and "expand-defs" not in error

    @pytest.mark.parametrize("command", ["models", "prove"])
    def test_reported_countermodel_is_certified(self, monkeypatch, command):
        # I5,I6 |= W2 has a countermodel; the structure with every cell set
        # satisfies W2, so it refutes nothing
        wrong = Structure(2, ((True, True), (True, True)), (0, 0))
        if command == "models":
            monkeypatch.setattr(cli, "find_countermodel", lambda premises, goal, n: wrong)
        else:
            real = cli.prove
            monkeypatch.setattr(cli, "prove", lambda *a: replace(real(*a), countermodel=wrong))
        with pytest.raises(RuntimeError, match=r"^internal error: size=2 .* is not a countermodel"):
            main([command, "--from", "I5,I6", "--goal", "W2"])

    def test_expand_defs_resolution(self):
        # names always resolve expanded: I7conv is I7 with CON written out
        assert main(["models", "--from", "I7conv", "--goal", "I7", "--max-size", "2",
                     "--expect-none"]) == EXIT_OK


class TestCorpusCommand:
    def test_full_golden_suite(self, capsys):
        assert main(["corpus"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("valid") == 6

    def test_env_override(self, tmp_path, monkeypatch, capsys):
        for cid in corpus_ids():
            (tmp_path / f"{cid}.prf").write_text(script_text(cid))
        (tmp_path / "E.prf").write_text(
            script_text("E").replace("43. UNDIR v2 v3  RDS 42 39", "43. UNDIR v3 v2  RDS 42 39")
        )
        monkeypatch.setenv("DIRGEO_CORPUS_DIR", str(tmp_path))
        assert main(["corpus"]) == EXIT_CHECK_FAILED
        assert "E" in capsys.readouterr().out

    def test_non_utf8_entry_is_a_parse_error(self, tmp_path, monkeypatch, capsys):
        for cid in corpus_ids():
            (tmp_path / f"{cid}.prf").write_text(script_text(cid))
        (tmp_path / "A.prf").write_bytes(b"\xff")
        monkeypatch.setenv("DIRGEO_CORPUS_DIR", str(tmp_path))
        assert main(["corpus"]) == EXIT_PARSE_ERROR
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("parse-error A  ") and sum(l.startswith("valid ") for l in lines) == 5

    def test_parse_error_outranks_failed_check(self, tmp_path, monkeypatch, capsys):
        # A does not parse and E fails its check; E is checked last
        for cid in corpus_ids():
            (tmp_path / f"{cid}.prf").write_text(script_text(cid))
        (tmp_path / "A.prf").write_text("1. UNDIR x @ PREMISE\n")
        (tmp_path / "E.prf").write_text(script_text("E").replace(" SAME ", " MP ", 1))
        monkeypatch.setenv("DIRGEO_CORPUS_DIR", str(tmp_path))
        assert main(["corpus"]) == EXIT_PARSE_ERROR
        statuses = [line.split()[0] for line in capsys.readouterr().out.splitlines()[:-1]]
        assert statuses == ["parse-error", "valid", "valid", "valid", "valid", "invalid"]
        paths = [str(tmp_path / f"{cid}.prf") for cid in ("A", "E")]
        assert main(["check", *paths]) == EXIT_PARSE_ERROR

    @pytest.mark.parametrize(
        "cid, text, problem",
        [("A", lambda: _restate_last(script_text("A")), "expected 17 lines, found 18"),
         ("A", lambda: script_text("D"), "conclusion differs from the declared sequent")],
        ids=["line-count", "conclusion"],
    )
    def test_valid_script_that_is_not_its_entry(self, tmp_path, monkeypatch, capsys, cid, text,
                                                 problem):
        for other in corpus_ids():
            (tmp_path / f"{other}.prf").write_text(script_text(other))
        (tmp_path / f"{cid}.prf").write_text(text())
        monkeypatch.setenv("DIRGEO_CORPUS_DIR", str(tmp_path))
        assert main(["corpus"]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"mismatch {cid}  {problem}"
        assert sum(line.startswith("valid ") for line in out) == 5

    @pytest.mark.parametrize("depth", [400, 3000])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, monkeypatch, capsys, depth):
        for cid in corpus_ids():
            (tmp_path / f"{cid}.prf").write_text(script_text(cid))
        formula = "~" * depth + "UNDIR x x"
        (tmp_path / "A.prf").write_text(f"PREMISE: {formula}\n1. {formula}  PREMISE\n")
        monkeypatch.setenv("DIRGEO_CORPUS_DIR", str(tmp_path))
        assert main(["corpus"]) == EXIT_PARSE_ERROR
        out = capsys.readouterr().out
        assert "parse-error A  formula nested too deeply" in out
        assert out.count("valid") == 5


class TestConfig:
    """The search bounds: SearchConfig's defaults and its non-negative-int
    rule, which the prove flags share with library callers."""

    def test_config_bounds_used_and_flags_override(self, capsys):
        argv = ["prove", "--from", "I5,I6,ODO", "--goal", "W2"]
        assert main(argv) == EXIT_OK  # SearchConfig's defaults
        assert main(argv + ["--max-lines", "50", "--max-term-depth", "1"]) == EXIT_SEARCH_FAILED
        assert main(argv + ["--max-lines", "30000", "--max-term-depth", "2"]) == EXIT_OK

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"max_depth": 2, "max_term_depth": -1, "max_lines": 2000}, "max_term_depth"),
         ({"max_lines": True}, "max_lines"),
         ({"max_lines": 10.5}, "max_lines"),
         ({"max_depth": 2.5}, "max_depth"),
         ({"max_depth": "two"}, "max_depth")],
        ids=["negative-term-depth", "bool-max-lines", "float-max-lines", "float-max-depth",
             "max-depth-string"],
    )
    def test_bad_bound_raises(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be a non-negative integer, got "):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize("flag", ["--max-term-depth", "--max-lines"])
    def test_negative_bound_flag_is_a_one_line_error(self, capsys, flag):
        assert main(["prove", "--from", "I6", "--goal", "W1", flag, "-1"]) == EXIT_PARSE_ERROR
        out, err = capsys.readouterr()
        field = flag[2:].replace("-", "_")
        report = err.splitlines()
        assert out == "" and len(report) == 2
        assert report[0] == f"error    W1  {field} must be a non-negative integer, got -1"

    def test_negative_flag_exits_2(self, capsys):
        assert main(["prove", "--from", "I6", "--goal", "W1", "--max-depth", "-1"]) == EXIT_PARSE_ERROR
        assert "max_depth" in capsys.readouterr().err


class TestSurface:
    """Each setting has one way in: a new option has to be added here."""

    OPTIONS = {
        "check": {"--format"},
        "prove": {"--format", "--from", "--goal", "--max-depth", "--max-term-depth",
                  "--max-lines"},
        "models": {"--format", "--from", "--goal", "--max-size", "--jobs", "--expect-none",
                   "--expect-counter"},
        "corpus": {"--format"},
    }

    def test_options_per_subcommand(self):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == set(self.OPTIONS)
        for command, sub in subparsers.choices.items():
            options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            assert options == self.OPTIONS[command], command

    @pytest.mark.parametrize(
        "argv, option",
        [(["corpus", "--config", "dirgeo.json"], "--config"),
         (["prove", "--from", "I5,I6,ODO", "--goal", "W2", "--staged"], "--staged"),
         (["prove", "--from", "I5,I6,ODO", "--goal", "W2", "--direct"], "--direct"),
         (["models", "--from", "I5,I6", "--goal", "W2", "--record"], "--record"),
         (["models", "--from", "I7conv", "--goal", "I7", "--expand-defs"], "--expand-defs"),
         (["prove", "--from", "I6", "--goal", "W1", "--out", "w1.prf"], "--out w1.prf"),
         (["check", "--keep-going", "-"], "--keep-going")],
        ids=["config", "staged", "direct", "record", "expand-defs", "out", "keep-going"],
    )
    def test_removed_option_is_a_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE_ERROR
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["models", "prove"])
    def test_unknown_option_under_records(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--from", "I6", "--goal", "W1", "--out", "x", "--format", "records"])
        assert exc.value.code == EXIT_PARSE_ERROR
        out, err = capsys.readouterr()
        report, other = (err, out) if command == "prove" else (out, err)
        records = [json.loads(line) for line in report.splitlines()]
        assert other == "" and [r["status"] for r in records] == ["error", "fail"]
        assert records[0] == {"command": command, "item": "usage", "status": "error",
                              "detail": "unrecognized arguments: --out x"}

    def test_usage_error_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "--from", "I6", "--goal", "W1", "--max-lines", "10.5"])
        assert exc.value.code == EXIT_PARSE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["dirgeo prove: error: argument --max-lines: invalid int value: '10.5'"]

    @pytest.mark.parametrize("command, flag", [("models", "--max-size"), ("prove", "--max-lines")])
    def test_usage_error_under_records(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--goal", "W1", flag, "x", "--format", "records"])
        assert exc.value.code == EXIT_PARSE_ERROR
        out, err = capsys.readouterr()
        report, other = (err, out) if command == "prove" else (out, err)
        records = [json.loads(line) for line in report.splitlines()]
        assert other == "" and [r["status"] for r in records] == ["error", "fail"]
        assert records[0] == {"command": command, "item": "usage", "status": "error",
                              "detail": f"argument {flag}: invalid int value: 'x'"}
        assert records[1]["exit_code"] == EXIT_PARSE_ERROR
