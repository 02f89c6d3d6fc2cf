"""The benchmark's self-test, run as part of the suite.

`perfbench/` patches functions and classes of the program by name to trace
them, and checks a run's artifacts with names it reads from the program. A
rename there fails these tests rather than the next benchmark run: the fast
ones patch and restore every traced name in this process and check a tiny
run's artifacts, the slow one runs the whole self-test.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbshare import agent, channel, harness, traffic
from rbshare.agent import AgentConfig
from rbshare.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_patches_and_restores_program(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer
    from workload import install_tracer

    forward = agent.MLP.forward
    tracer = Tracer()
    try:
        install_tracer(tracer, np)
        assert agent.MLP.forward is not forward
    finally:
        tracer.restore()
    assert agent.MLP.forward is forward


# `artifact_checks` reads `ChannelParams.rb_duration`, the summary's keys and
# the checkpoint's layout; a tiny baseline and a tiny trained DQN pass it.
@pytest.mark.parametrize("policy, weights", [("mt", None), ("dqn", "trained")])
def test_artifact_checks_pass(monkeypatch, tmp_path, policy, weights):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from checks import Checks, artifact_checks

    config = ExperimentConfig(policy=policy, episodes=2, steps_per_episode=40,
                              eval_set=False, checkpoint=weights is not None,
                              agent=AgentConfig(hidden=(16,), min_observations=32))
    harness.run(config, out_dir=tmp_path)
    budgets = {svc.id: svc.max_latency for svc in traffic.service_catalog(config.rate)}
    checks = Checks()
    artifact_checks(checks, policy, tmp_path, config, channel.default_cqi_table().se_max,
                    budgets, weights)
    assert len(checks.results) >= 5
    assert [r for r in checks.results if not r[1]] == []


@pytest.mark.slow
def test_benchmark_selftest():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
