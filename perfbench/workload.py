"""One workload process of the benchmark.

    python3 perfbench/workload.py '<request as JSON>'

`run.py` starts this script afresh for every cold start and every repetition.
It pins BLAS to one thread before numpy loads, writes the workload's config
files and runs each one through the program's own entry point:
`harness.load_config`, then `harness.run` with an output directory. It prints
one JSON line with what it measured and checked.

Modes:
    run    run the workload untraced and check its artifacts
    trace  run it with every layer boundary traced and the audit on
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("baselines", "dqn-train", "dqn-act")
BASELINE_POLICIES = ("mt", "ml", "random", "mt+f", "ml+f")

# (episodes, steps_per_episode) of one repetition; "tiny" is for the self-test.
SIZES = {
    "full": {"baselines": (2, 500), "dqn-train": (1, 250), "dqn-act": (2, 500)},
    "tiny": {"baselines": (1, 20), "dqn-train": (1, 200), "dqn-act": (1, 100)},
}
DEFAULT_NUM_RBS = 6  # R of the default scenario, which every workload uses

# Per-layer spans in report order.
SPAN_NAMES = (
    "channel.draw_link", "channel.redraw_small_scale", "channel.link_deliverable_bits",
    "traffic.generate_arrivals",
    "env.reset", "env.step", "env.encode",
    "agent.act", "agent.forward_1", "agent.forward_batch", "agent.observe",
    "agent.replay_push", "agent.replay_sample", "agent.dqn_targets", "agent.gradients",
    "agent.train_minibatch", "agent.sync_target",
    "metrics.record", "metrics.summary",
    "harness.make_policy", "harness.run",
)


def config_texts(workload: str, seed: int, scale: str) -> list[tuple[str, str]]:
    """(label, config file text) of each `harness.run` in one repetition."""
    episodes, steps = SIZES[scale][workload]
    common = [f"run.seed = {seed}", f"run.episodes = {episodes}",
              f"run.steps_per_episode = {steps}"]
    if workload == "baselines":
        return [(policy.replace("+", "_"),
                 "\n".join(common + [f"run.policy = {policy}", "run.licensed_rbs = 4"]) + "\n")
                for policy in BASELINE_POLICIES]
    dqn = common + ["run.policy = dqn", "run.eval_set = false", "run.checkpoint = true"]
    if workload == "dqn-act":
        # Greedy acting and replay writes only: no SGD step is ever taken.
        dqn += ["agent.eps0 = 0.01", "agent.eps_inf = 0.01",
                f"agent.min_observations = {episodes * steps * DEFAULT_NUM_RBS + 1}"]
    return [("dqn", "\n".join(dqn) + "\n")]


def hook_first_step(env_cls) -> dict:
    """Records when the first episode is ready, i.e. the first RL step starts.
    The hook removes itself at that first call."""
    seen: dict = {}
    reset = vars(env_cls)["reset"]

    def timed_reset(env):
        state = reset(env)
        env_cls.reset = reset
        seen["t"] = time.monotonic()
        return state

    env_cls.reset = timed_reset
    return seen


def install_tracer(tracer, np):
    from rbshare import agent, channel, environment, harness, metrics, traffic

    env, mlp = environment.SchedulingEnv, agent.MLP
    spans = [
        (channel, "draw_link", "channel.draw_link"),
        (channel, "redraw_small_scale", "channel.redraw_small_scale"),
        (channel, "link_deliverable_bits", "channel.link_deliverable_bits"),
        (traffic, "generate_arrivals", "traffic.generate_arrivals"),
        (env, "reset", "env.reset"),
        (env, "step", "env.step"),
        (env, "encode", "env.encode"),
        (agent.DQNPolicy, "act", "agent.act"),
        (agent.CallablePolicy, "act", "agent.act"),
        (mlp, "forward",
         lambda args: "agent.forward_1" if np.ndim(args[1]) == 1 else "agent.forward_batch"),
        (agent.DQNPolicy, "observe", "agent.observe"),
        (agent.CallablePolicy, "observe", "agent.observe"),
        (agent.ReplayMemory, "push", "agent.replay_push"),
        (agent.ReplayMemory, "sample", "agent.replay_sample"),
        (agent, "dqn_targets", "agent.dqn_targets"),
        (mlp, "gradients", "agent.gradients"),
        (mlp, "train_minibatch", "agent.train_minibatch"),
        (agent, "sync_target", "agent.sync_target"),
        (metrics.RunMetrics, "record", "metrics.record"),
        (metrics.RunMetrics, "summary", "metrics.summary"),
        (harness, "make_policy", "harness.make_policy"),
        (harness, "run", "harness.run"),
    ]
    for owner, attr, name in spans:
        tracer.patch(owner, attr, name)

    # The fixed-split wrapper is a class made inside `fixed_split`; trace its
    # instances' act/observe so a `+f` policy's every decision is one span.
    fixed_split = vars(harness)["fixed_split"]

    def traced_fixed_split(*args):
        policy = fixed_split(*args)
        policy.act = tracer.wrap(policy.act, "agent.act")
        policy.observe = tracer.wrap(policy.observe, "agent.observe")
        return policy

    tracer.replace(harness, "fixed_split", traced_fixed_split)


def run_workload(request: dict) -> dict:
    src = Path(request["root"]) / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    from rbshare import channel, harness, traffic
    from rbshare.environment import SchedulingEnv

    if not Path(harness.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"rbshare was imported from {harness.__file__}, not from {src}")
    from checks import Audit, Checks, artifact_checks
    from tracer import Tracer

    mode, workload = request["mode"], request["workload"]
    out = Path(request["out"])
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, text in config_texts(workload, request["seed"], request["scale"]):
        path = out / f"{label}.cfg"
        path.write_text(text)
        paths.append((label, path))

    checks = Checks()
    tracer = audit = None
    first = {}
    if mode == "trace":
        tracer = Tracer()
        install_tracer(tracer, np)
        audit = Audit(checks)
        audit.install(SchedulingEnv)
    else:
        first = hook_first_step(SchedulingEnv)

    runs = []
    harness_s = 0.0
    for label, path in paths:
        config = harness.load_config(path)
        if audit:
            audit.begin_run(config.policy, config.licensed_rbs)
        t = time.monotonic()
        artifacts = harness.run(config, out / label)
        harness_s += time.monotonic() - t
        if audit:
            audit.end_run(label, artifacts.summary)
        runs.append((label, config, artifacts.summary["time_steps"] * artifacts.summary["num_rbs"]))
        del artifacts
    t_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        audit.restore()
        tracer.restore()

    se_max = channel.default_cqi_table().se_max
    weights = {"dqn-train": "trained", "dqn-act": "unchanged"}.get(workload)
    result = {"harness_s": harness_s, "peak_rss_mb": peak_rss_mb,
              "episodes": sum(config.episodes for _, config, _ in runs),
              "rl_steps": sum(steps for _, _, steps in runs), "se": {}, "summary_sha256": {}}
    for label, config, _ in runs:
        budgets = {svc.id: svc.max_latency for svc in traffic.service_catalog(config.rate)}
        artifact_checks(checks, label, out / label, config, se_max, budgets, weights)
        summary = (out / label / "summary.json").read_bytes()
        result["summary_sha256"][label] = hashlib.sha256(summary).hexdigest()
        result["se"][label] = json.loads(summary)["se_licensed_adjusted"]

    if mode == "run":
        result["setup_s"] = first["t"] - request["t0"]
        result["run_s"] = t_end - first["t"]
    else:
        totals = tracer.totals()
        checks.expect("every root span is harness.run", tracer.root_names() == {"harness.run"},
                      f"{tracer.root_names()}")
        if workload == "baselines":
            checks.expect("mt and ml actions match the oracle",
                          audit.oracle_actions > 0 and audit.mismatches == 0,
                          f"{audit.mismatches} of {audit.oracle_actions} differ; "
                          f"first: {audit.first_mismatch}")
        layers = {}
        for name in SPAN_NAMES:
            calls, _, self_s = totals.get(name, (0, 0.0, 0.0))
            layers[f"{name}.calls"] = (calls, "count")
            layers[f"{name}.self_s"] = (self_s, "s")
        _, run_total, run_self = totals["harness.run"]
        layers["trace.covered_ratio"] = (1.0 - run_self / run_total, "ratio")
        layers["env.abandoned"] = (audit.abandoned, "count")
        layers["agent.valid_action_ratio"] = (audit.valid / audit.attempts, "ratio")
        result["layers"] = layers
    result["checks"] = checks.results
    return result


def main() -> int:
    request = json.loads(sys.argv[1])
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads
    print(json.dumps(run_workload(request)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
