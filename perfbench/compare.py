"""Run two sets of benchmark runs of the same code and say whether they agree.

    python3 perfbench/compare.py

Each of SETS sets runs every workload of BENCHMARK.json RUNS times through
perfbench/run.py, for run_seconds each, every run with its own seed (set k
uses seeds 1000*k + 1 ... 1000*k + RUNS).  For each workload and end-to-end
metric it prints each set's median, quartiles and spread (the distance
between the quartiles as a share of the median), as
statistics.quantiles(values, n=4) gives them.  The sets agree when every
spread, setup_s's too, is within the metric's bound in BENCHMARK.json, when
no later set's median is worse than the first set's by more than the bound,
and when the share of failed operations is the same in every run.
The full figures go to perfbench/out/compare-<time>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def judge(spec: dict, sets: list[dict]) -> list[str]:
    """Disagreements between sets of runs of one workload; empty if none.
    Each set maps metric name -> summary, plus "failed_shares"."""
    problems = []
    shares = {share for s in sets for share in s["failed_shares"]}
    if len(shares) > 1:
        problems.append(f"failed share differs between runs: {sorted(shares)}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for k, s in enumerate(sets, start=1):
            if s[name]["spread"] > bound:
                problems.append(f"{name}: set {k} spread {s[name]['spread']:.3f} > bound {bound}")
            worse = worse_by(sets[0][name]["median"], s[name]["median"], metric["better"])
            if worse > bound:
                problems.append(f"{name}: set {k} median worse by {worse:.3f} > bound {bound}")
    return problems


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect answers:\n{out.stderr}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    agree = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for k in range(1, SETS + 1):
            results = []
            for i in range(1, RUNS + 1):
                started = time.monotonic()
                results.append(run_once(workload, 1000 * k + i, spec["run_seconds"]))
                print(f"{workload} set {k} run {i}: {time.monotonic() - started:.1f} s",
                      file=sys.stderr)
            s = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                 for m in spec["end_to_end"]}
            s["failed_shares"] = [r["failed"] / r["attempted"] for r in results]
            sets.append(s)
        problems = judge(spec, sets)
        agree = agree and not problems
        report[workload] = {"sets": sets, "problems": problems}
        print(f"\n{workload}: {'agree' if not problems else 'DISAGREE'}")
        for m in spec["end_to_end"]:
            cells = "  ".join(
                f"set {k}: median {s[m['name']]['median']:.4g} [{s[m['name']]['q1']:.4g}, "
                f"{s[m['name']]['q3']:.4g}] spread {s[m['name']]['spread']:.3f}"
                for k, s in enumerate(sets, start=1)
            )
            print(f"  {m['name']:<12} bound {m['bound']:<5} {cells}")
        for p in problems:
            print(f"  ! {p}")
    out = HERE / "out" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\n{'all workloads agree' if agree else 'some workloads disagree'}; figures in {out}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
