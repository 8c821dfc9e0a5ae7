"""Self-test of the benchmark itself; run from the checkout root:

    python3 bench/selftest.py

1. One traced repro pass must record exactly 54 enumerate_models and
   432,575 sequent_witness calls, the counts cProfile gives for one serial
   `phl repro --all` at the commit the benchmark was defined on.  A miss
   means a call site escaped the wrappers (or the program changed).
2. The metric names and units in run.py must be those of BENCHMARK.json.
3. Work counts of a traced run must repeat exactly under two different
   PYTHONHASHSEED values, for every workload.
4. In a directory holding only BENCHMARK.json and bench/, run.py must exit
   non-zero without printing a result.
Exits non-zero if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracing import Tracer
from workloads import OUT, ROOT, WORKLOADS

COUNT_SUFFIXES = (".calls", ".models", ".pairs", ".homs", ".maps_checked")
EXPECTED_REPRO_PASS = {"closure.enumerate_models.calls": 54,
                       "structures.sequent_witness.calls": 432_575}


def check_repro_counts() -> list:
    workload = run.set_up("repro", seed=1)
    runner = run.Runner(workload)
    tracer = Tracer()
    tracer.install(workload.mods, [t.run for t in workload.mods["targets"].TARGETS])
    try:
        runner.run_pass(workload.ops(0), tracer)
    finally:
        tracer.uninstall()
    errors = [f"repro op failed: {r}" for r in runner.reasons]
    for name, want in EXPECTED_REPRO_PASS.items():
        got = tracer.counts[name]
        print(f"one traced repro pass: {name} = {got} (expected {want})")
        if got != want:
            errors.append(f"{name}: {got} != {want}")
    return errors


def check_names() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        errors.append("end_to_end metrics differ between BENCHMARK.json and run.py")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != run.PER_LAYER:
        errors.append("per_layer metrics differ between BENCHMARK.json and run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("workloads differ between BENCHMARK.json and workloads.py")
    return errors


def traced_counts(workload, hashseed) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def check_hashseed() -> list:
    errors = []
    for workload in sorted(WORKLOADS):
        first, second = traced_counts(workload, 1), traced_counts(workload, 2)
        differ = sorted(k for k in first if first[k] != second[k])
        print(f"{workload}: {len(first)} counts, {len(differ)} differ "
              f"between PYTHONHASHSEED=1 and 2")
        errors += [f"{workload}: {k} = {first[k]} vs {second[k]}" for k in differ]
    return errors


def check_stripped() -> list:
    OUT.mkdir(exist_ok=True)
    where = Path(tempfile.mkdtemp(prefix="stripped-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", where)
        shutil.copytree(ROOT / "bench", where / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "repro", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=where, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    print(f"without src/: exit {proc.returncode}, stderr {proc.stderr.strip()!r}")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py produced a result without the program's source"]
    return []


def main() -> int:
    errors = check_names() + check_stripped() + check_repro_counts() + check_hashseed()
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
