"""Benchmark of rbshare: closed-loop workloads run through `harness.run`.

    python3 perfbench/run.py --workload baselines --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics. The workload is repeated, each
time in a fresh process, until `--seconds` have passed; set-up time,
throughput and memory are the medians over the repetitions.

`--trace 1` runs the workload once untraced and once with every layer
boundary traced, and reports the per-layer metrics.

Every repetition's artifacts are checked. The last line of the output is one
JSON object with the keys correct, attempted, failed and metrics. See
perfbench/README.md for the workloads and how the bounds were set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Repetitions with distinct run seeds in one run. The licensed SE of one seed
# spreads by 20-40% across seeds (the traffic and channel draws, and on
# dqn-act the initial network), so a run averages it over these many seeds.
SEEDS_PER_RUN = {
    "full": {"baselines": 12, "dqn-train": 12, "dqn-act": 16},
    "tiny": {"baselines": 2, "dqn-train": 1, "dqn-act": 2},
}
CHILD_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    pass


def spawn(request: dict) -> dict:
    """Runs one workload process and returns its JSON result."""
    argv = [sys.executable, str(HERE / "workload.py")]
    t0 = time.monotonic()
    proc = subprocess.run(argv + [json.dumps({**request, "t0": t0})], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited with {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def host_reference(np) -> dict:
    """Times a fixed pure-Python loop and a fixed float32 GEMM (32x512 by
    512x512); each the median of 5 timings, in ms. Not gated: it tells a slow
    host apart from a slow change."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 512), dtype=np.float32)
    b = rng.standard_normal((512, 512), dtype=np.float32)

    def py_loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    def gemm():
        for _ in range(50):
            a @ b

    out = {}
    for name, fn in (("py_loop_ms", py_loop), ("gemm50_ms", gemm)):
        times = []
        for _ in range(5):
            t = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t) * 1e3)
        out[name] = statistics.median(times)
    return out


def note_failures(checks: list, failures: list):
    failures.extend(f"{name}: {detail}" for name, ok, detail in checks if not ok)


def run_seeds(base: dict) -> list[int]:
    """The run seeds of a benchmark seed: repetition k uses seed * n + k."""
    n = SEEDS_PER_RUN[base["scale"]][base["workload"]]
    return [base["seed"] * n + k for k in range(n)]


def timed_run(base: dict, run_dir: Path, seconds: int, failures: list):
    seeds = run_seeds(base)
    reps = []
    start = time.monotonic()
    while len(reps) < len(seeds) or time.monotonic() - start < seconds:
        k = len(reps) % len(seeds)
        out = run_dir / f"rep{len(reps)}"
        rep = spawn({**base, "seed": seeds[k], "mode": "run", "out": str(out)})
        shutil.rmtree(out)
        print(f"rep {len(reps) + 1}: run.seed={seeds[k]} rl_steps={rep['rl_steps']} "
              f"run_s={rep['run_s']:.4f} setup_s={rep['setup_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.2f} checks={len(rep['checks'])}")
        note_failures(rep["checks"], failures)
        if len(reps) >= len(seeds) and rep["summary_sha256"] != reps[k]["summary_sha256"]:
            failures.append(f"run.seed={seeds[k]}: a rerun wrote a different summary.json")
        reps.append(rep)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "rl_steps_per_s": (statistics.median(r["rl_steps"] / r["run_s"] for r in reps), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        # Mean over the run seeds, and over the five baselines of one seed.
        "se_licensed_adjusted": (statistics.fmean(statistics.fmean(r["se"].values())
                                                  for r in reps[:len(seeds)]), "b/s/Hz"),
    }
    return metrics, sum(r["episodes"] for r in reps)


def traced_run(base: dict, run_dir: Path, failures: list):
    base = {**base, "seed": run_seeds(base)[0]}
    untraced = spawn({**base, "mode": "run", "out": str(run_dir / "untraced")})
    traced = spawn({**base, "mode": "trace", "out": str(run_dir / "traced")})
    for rep in (untraced, traced):
        note_failures(rep["checks"], failures)
    if traced["summary_sha256"] != untraced["summary_sha256"]:
        failures.append("the traced run wrote a different summary.json than the untraced one")
    print(f"harness.run time: untraced {untraced['harness_s']:.4f} s, "
          f"traced {traced['harness_s']:.4f} s")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = (traced["harness_s"] - untraced["harness_s"], "s")
    return metrics, untraced["episodes"] + traced["episodes"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny workload sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rbshare" / "harness.py").is_file():
        print(f"error: no rbshare sources under {ROOT / 'src'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads, here and in every workload process
    import numpy as np

    print(f"machine: {json.dumps(machine_facts(np))}")
    print(f"host reference before: {json.dumps(host_reference(np))}")
    run_dir = HERE / "_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
            "scale": "tiny" if args.tiny else "full"}
    failures: list = []
    try:
        if args.trace:
            metrics, attempted = traced_run(base, run_dir, failures)
        else:
            metrics, attempted = timed_run(base, run_dir, args.seconds, failures)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(f"host reference after: {json.dumps(host_reference(np))}")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"attempted = {attempted} episodes, failed = 0")
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
