"""Run one workload of the dirgeo benchmark and print its metrics.

    python3 perfbench/run.py --workload check|mutants|search|models \\
        --seed N --seconds S --trace 0|1

Run it from the root of a dirgeo checkout; it imports dirgeo from ``src/``.
The workload runs in a fresh interpreter (perfbench/workloads.py).  With
``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics of BENCHMARK.json; ``setup_s`` is the median of
SETUP_SAMPLES set-ups, each timed from starting the interpreter until the
timed phase could begin.  With ``--trace 1`` it holds the per-layer
metrics of one traced run instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    pass


def _child(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start a workload process; return its set-up time and final record."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or first.strip() != "READY":
        raise RunError(f"workload process exited with code {code}")
    if setup_only:
        return setup_s, None
    if not rest:
        raise RunError("workload process printed no result")
    return setup_s, json.loads(rest[-1])


def _import_ms() -> float:
    """Median time to import dirgeo.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import dirgeo.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout) * 1000.0)
    return statistics.median(samples)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dirgeo" / "__init__.py").is_file():
        print(f"perfbench: no dirgeo source tree at {ROOT / 'src' / 'dirgeo'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            _, record = _child(args, False, deadline)
            values = {"cli.import_ms": _import_ms(), **record["layers"]}
            print(f"perfbench: traced ops_per_s {record['traced_ops_per_s']:.3f}", file=sys.stderr)
        else:
            setups = [_child(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup_s, record = _child(args, False, deadline)
            setups.append(setup_s)
            values = {"setup_s": statistics.median(setups), **record["metrics"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
    except (RunError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench: {record['attempted']} operations; first (cold) pass "
          f"{record['first_pass_s']:.3f} s, later passes {record['pass_s']:.3f} s", file=sys.stderr)
    for problem in record["problems"]:
        print(f"perfbench: incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
