"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

It checks the answer oracle against dirgeo's own evaluator, the seeded
inputs, the agreement rule of compare.py, and the output contract of
run.py, including its refusal to run without a source tree.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from dirgeo import models  # noqa: E402
from dirgeo.geometry import axiom  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = ("I5", "I6", "I7", "I8", "ODO", "W1", "W2", "W3", "W4", "OO")


def test_oracle_agrees_with_the_model_finders_evaluator():
    rng = random.Random(5)
    for n in (1, 2, 3):
        structures = list(models.enumerate_structures(n))
        sample = range(len(structures)) if n < 3 else rng.sample(range(len(structures)), 200)
        for name in CATALOG:
            f = axiom(name)
            vector = oracle.truth_vector(f, n)
            for i in sample:
                s = structures[i]
                assert vector[i] == oracle.holds(s, f) == models.eval_formula(s, f), (name, n, i)
                assert oracle.order_index(n, s.rev, s.undir) == i


def test_oracle_accepts_the_first_countermodel_and_rejects_a_later_one():
    premises = [axiom("I5"), axiom("I6")]
    for goal in ("W2", "W3"):
        cm = models.find_countermodel(premises, axiom(goal), 4)
        assert oracle.countermodel_problems(premises, axiom(goal), cm) == []
        later = np.flatnonzero(oracle.countermodel_mask(premises, axiom(goal), cm.size))[-1]
        s = list(models.enumerate_structures(cm.size))[later]
        assert oracle.countermodel_problems(premises, axiom(goal), s) != []
    assert not oracle.has_countermodel([axiom("I6")], axiom("W1"))


def test_oracle_does_not_import_the_model_finder():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import oracle; "
        "print('dirgeo.models' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_inputs_follow_the_seed():
    draws = workloads.random_draws(random.Random(1))
    assert draws == workloads.random_draws(random.Random(1))
    assert draws != workloads.random_draws(random.Random(2))
    assert all(goal not in premises for premises, goal in draws)
    assert sorted(g for _, g in draws) == sorted(CATALOG * 11)
    assert len(workloads.corpus_mutants()) == 5723


def test_compare_judges_spread_drift_and_failed_share():
    def one_set(scale, failed=0.0):
        s = {m["name"]: compare.summary([scale * v for v in (9.8, 10.0, 10.1, 10.2, 10.0)])
             for m in SPEC["end_to_end"]}
        s["failed_shares"] = [failed] * 5
        return s

    assert compare.judge(SPEC, [one_set(1.0), one_set(1.01)]) == []
    assert compare.judge(SPEC, [one_set(1.0), one_set(1.0, failed=0.01)])
    slower = compare.judge(SPEC, [one_set(1.0), one_set(2.0)])
    assert any(p.startswith("op_p50_ms") for p in slower)
    assert any(p.startswith("ops_per_s") for p in compare.judge(SPEC, [one_set(1.0), one_set(0.5)]))
    noisy = one_set(1.0)
    noisy["setup_s"] = compare.summary([5.0, 10.0, 10.0, 15.0, 20.0])
    assert any(p.startswith("setup_s") for p in compare.judge(SPEC, [noisy, noisy]))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_run_refuses_a_directory_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(bare, "--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout


def _result(trace: int) -> dict:
    out = _run(ROOT, "--workload", "check", "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_run_prints_every_end_to_end_metric():
    result = _result(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= workloads.MIN_OPS and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = _result(1)
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
