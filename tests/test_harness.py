import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from rbshare import cli, harness
from rbshare.environment import SchedulingEnv
from rbshare.harness import ConfigError, ExperimentConfig, load_config


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg.channel.num_rbs == 6
        assert cfg.buffer_len == 10
        assert cfg.rate == "high"
        assert cfg.agent.hidden == (512, 512, 512)
        assert cfg.agent.learning_rate == 1e-4
        assert cfg.episodes == 133 and cfg.steps_per_episode == 500

    def test_delta_inf_sentinel(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "reward.delta = inf\n"))
        assert math.isinf(cfg.delta)

    # Out-of-range agent settings fail at load time and name their key.
    # Several used to load and then stop a run midway with a traceback.
    @pytest.mark.parametrize("setting", [
        pytest.param("agent.learning_rate = -0.1", id="learning_rate"),
        pytest.param("agent.replay_capacity = 0", id="replay_capacity"),
        pytest.param("agent.target_sync = 0", id="target_sync"),
        pytest.param("agent.minibatch = 64\nagent.min_observations = 40", id="minibatch"),
        pytest.param("agent.minibatch = 0", id="minibatch_zero"),
        pytest.param("agent.eps0 = 2", id="eps0"),
        pytest.param("agent.eps_inf = -0.5", id="eps_inf"),
        pytest.param("agent.eps_decay_steps = 0", id="eps_decay_steps"),
        # A warm-up longer than the replay memory can hold never ends.
        pytest.param("agent.min_observations = 40\nagent.replay_capacity = 10",
                     id="min_observations"),
    ])
    def test_bad_agent_setting_names_key(self, tmp_path, setting):
        key = setting.split(" = ")[0]
        with pytest.raises(ConfigError, match="^" + key.replace(".", r"\.") + ":"):
            load_config(write_config(tmp_path, setting + "\n"))

    # Run-length settings below 1 used to load: `max_rl_steps = 0` ended in a
    # traceback, `learning_window = 0` raised only after the whole run.
    @pytest.mark.parametrize("key", ["run.max_rl_steps", "run.learning_window"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_run_length_below_one_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match="^" + key.replace(".", r"\.") + ": must be >= 1$"):
            load_config(write_config(tmp_path, f"{key} = {value}\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, "agent.optimizer = adam\n"))

    def test_bad_rate_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="traffic.rate"):
            load_config(write_config(tmp_path, "traffic.rate = medium\n"))

    def test_comments_and_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
# scenario
env.buffer_len = 40
env.continuity_len = 5
reward.alpha = 2
reward.beta = 2
reward.delta = 1
traffic.rate = low
run.policy = mt+f
run.licensed_rbs = 4
"""))
        assert cfg.buffer_len == 40 and cfg.continuity_len == 5
        assert (cfg.alpha, cfg.beta, cfg.delta) == (2.0, 2.0, 1.0)
        assert cfg.policy == "mt+f"


def tiny_config(policy="mt", seed=0, **kw):
    cfg = ExperimentConfig(policy=policy, seed=seed, episodes=2,
                           steps_per_episode=40, eval_set=False, **kw)
    cfg.agent.hidden = (16,)
    cfg.agent.min_observations = 32
    return cfg


class TestRun:
    def test_rl_step_budget(self):
        cfg = tiny_config()
        artifacts = harness.run(cfg)
        assert artifacts.train_metrics.time_steps == 2 * 40

    def test_mt_baseline_delivers(self, tmp_path):
        artifacts = harness.run(tiny_config(), out_dir=tmp_path)
        assert artifacts.summary["se_licensed"] > 0
        assert json.loads((tmp_path / "summary.json").read_text()) == artifacts.summary
        header = (tmp_path / "learning_curve.csv").read_text().splitlines()[0]
        assert header == "step,value"
        latency_csvs = sorted(tmp_path.glob("latency_type*.csv"))
        names = [p.name for p in latency_csvs]
        assert "latency_type1.csv" in names
        assert names == [f"latency_type{i}.csv" for i in sorted(artifacts.eval_metrics.latency)]
        for path in latency_csvs:
            assert path.read_text().startswith("latency,cdf\n")

    def test_episode_reset_resamples(self):
        artifacts = harness.run(tiny_config(seed=1))
        # two episodes of 40 steps each; arrivals occur in both
        assert artifacts.summary["arrivals"] > 10

    def test_determinism_bitwise(self, tmp_path):
        for d in ("a", "b"):
            harness.run(tiny_config(policy="dqn", seed=7), out_dir=tmp_path / d)
        for name in ("summary.json", "learning_curve.csv", "config_echo.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = harness.run(tiny_config(seed=1))
        b = harness.run(tiny_config(seed=2))
        assert a.summary["delivered_bits"] != b.summary["delivered_bits"]

    def test_max_rl_steps_guard(self):
        cfg = tiny_config()
        cfg.max_rl_steps = 1  # second episode never starts
        artifacts = harness.run(cfg)
        assert artifacts.train_metrics.time_steps == 40

    def test_checkpoint_written(self, tmp_path):
        cfg = tiny_config(policy="dqn")
        cfg.checkpoint = True
        harness.run(cfg, out_dir=tmp_path)
        assert (tmp_path / "qnetwork.npz").exists()

    def test_invalid_policy_reported(self):
        cfg = tiny_config()
        cfg.policy = "ppo"
        with pytest.raises(ConfigError, match="policy"):
            harness.run(cfg)


@pytest.fixture
def encodes(monkeypatch):
    """The RL step (`env.rl_step`) of every `SchedulingEnv.encode` call."""
    calls = []
    encode = SchedulingEnv.encode

    def counted(env, *args, **kwargs):
        calls.append(env.rl_step)
        return encode(env, *args, **kwargs)

    monkeypatch.setattr(SchedulingEnv, "encode", counted)
    return calls


class TestEncodeOnDemand:
    @pytest.mark.parametrize("policy", ["mt", "ml", "random", "mt+f", "ml+f"])
    def test_baselines_never_encode(self, encodes, policy):
        artifacts = harness.run(tiny_config(policy=policy))
        assert artifacts.train_metrics.time_steps == 2 * 40
        assert encodes == []

    @pytest.mark.parametrize("freeze_eval", [False, True])
    def test_dqn_encodes_once_per_step(self, encodes, monkeypatch, freeze_eval):
        policies = []
        make_policy = harness.make_policy

        def kept_policy(*args):
            policies.append(make_policy(*args))
            return policies[-1]

        monkeypatch.setattr(harness, "make_policy", kept_policy)
        cfg = tiny_config(policy="dqn")
        cfg.eval_set, cfg.freeze_eval = True, freeze_eval
        harness.run(cfg)
        (policy,) = policies
        steps = cfg.steps_per_episode * cfg.channel.num_rbs
        # Per episode of either set: one fresh encode before the first step
        # (rl_step 0), then one after each step.
        assert encodes == list(range(steps + 1)) * (2 * cfg.episodes)
        assert policy.train_steps > 0

        mem = policy.memory
        n = len(mem)
        assert n == 2 * cfg.episodes * steps
        ends = np.flatnonzero(mem.terminal[:n])
        assert list(ends) == [steps * (e + 1) - 1 for e in range(2 * cfg.episodes)]
        within = ~mem.terminal[:n - 1]
        assert np.array_equal(mem.next_states[:n - 1][within], mem.states[1:n][within])
        # The first state of an episode is the freshly reset environment:
        # an empty buffer, zero continuity counters, the first RB.
        fresh = np.zeros(mem.states.shape[1], dtype=np.float32)
        fresh[-1] = 1 / cfg.channel.num_rbs
        for first in [0, *(ends[:-1] + 1)]:
            assert np.array_equal(mem.states[first], fresh)


class TestCompare:
    def test_single_run_table(self, tmp_path):
        harness.run(tiny_config(), out_dir=tmp_path / "r0")
        table = harness.compare([tmp_path / "r0"])
        assert "mt" in table and "se_licensed_adjusted" in table

    def test_multi_policy_rows(self, tmp_path):
        harness.run(tiny_config(policy="mt", seed=0), out_dir=tmp_path / "mt0")
        harness.run(tiny_config(policy="ml", seed=0), out_dir=tmp_path / "ml0")
        harness.run(tiny_config(policy="ml", seed=1), out_dir=tmp_path / "ml1")
        table = harness.compare([tmp_path / d for d in ("mt0", "ml0", "ml1")])
        lines = table.splitlines()
        assert len(lines) == 3  # header + two policy rows

    def test_mixed_scenarios_rejected(self, tmp_path):
        harness.run(tiny_config(), out_dir=tmp_path / "r0")
        harness.run(tiny_config(buffer_len=20), out_dir=tmp_path / "r1")
        with pytest.raises(ConfigError, match="mismatched"):
            harness.compare([tmp_path / "r0", tmp_path / "r1"])


class TestCli:
    def test_run_with_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.episodes = 1\nrun.steps_per_episode = 30\n"
                                     "run.eval_set = false\nagent.hidden = 8\n")
        rc = cli.main(["run", str(cfg), "--policy", "mt", "--seed", "3",
                       "--out", str(tmp_path / "out"), "--buffer", "5"])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["policy"] == "mt" and summary["buffer_len"] == 5
        assert "se_licensed" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "nonsense = 1\n")
        assert cli.main(["run", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["run.max_rl_steps", "run.learning_window"])
    def test_run_length_zero_exit_code(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, f"{key} = 0\nrun.episodes = 1\n"
                                     "run.steps_per_episode = 20\nrun.policy = mt\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key}: must be >= 1\n"
        assert not out.exists()  # rejected before anything is written

    def test_training_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "agent.learning_rate = 1e6\n"
                                     "agent.min_observations = 40\n"
                                     "run.episodes = 1\nrun.steps_per_episode = 20\n"
                                     "run.eval_set = false\nagent.hidden = 16\n")
        # Any numpy overflow warning on the way would raise here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(cfg)]) == 1
        assert "error: training diverged: non-finite training loss" in capsys.readouterr().err

    def test_compare_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.episodes = 1\nrun.steps_per_episode = 30\n"
                                     "run.eval_set = false\n")
        cli.main(["run", str(cfg), "--policy", "mt", "--out", str(tmp_path / "o1")])
        cli.main(["run", str(cfg), "--policy", "ml", "--out", str(tmp_path / "o2")])
        assert cli.main(["compare", str(tmp_path / "o1"), str(tmp_path / "o2")]) == 0
        assert "policy" in capsys.readouterr().out
