"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced at tiny sizes and
checks that each run exits 0, passes every check and prints every metric of
BENCHMARK.json with its unit, as a line and in the closing JSON object. Then
runs the benchmark in a directory that holds only BENCHMARK.json and the
benchmark's files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(spec: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(spec["command"] + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = bench(spec, ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}\n" + "\n".join(
                            line for line in lines if line.startswith("CHECK FAILED")))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} != {wanted}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        elif f"{name} = {value!r} {m['unit']}" not in lines:
            problems.append(f"{where}: no line prints {name} with its unit")
    if workload == "dqn-train" and trace:
        covered = result["metrics"]["trace.covered_ratio"]["value"]
        if covered < 0.9:
            problems.append(f"{where}: trace.covered_ratio {covered} < 0.9")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    bare = HERE / "_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("_runs", "__pycache__"))
        proc = bench(spec, bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    last = (proc.stdout.splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = check_bare_directory(spec)
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
