import dataclasses
import json
import math
import os
import re
import signal
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_ml, oracle_mt, seeded_env
from rbshare import channel as ch
from rbshare import cli, harness
from rbshare import traffic as tr
from rbshare.agent import AgentConfig, DQNPolicy, TrainingDiverged
from rbshare.environment import SchedulingEnv
from rbshare.harness import ConfigError, ExperimentConfig, load_config


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# A valid value other than the default for every config key.
NON_DEFAULT_VALUES = {
    "channel.path_loss_exponent": "3", "channel.shadowing_sigma": "4.1",
    "channel.corr_param": "0.5", "channel.coherence_time": "6",
    "channel.dist_min": "20", "channel.dist_max": "250", "channel.tx_power": "0.2",
    "channel.rb_bandwidth": "360e3", "channel.num_rbs": "8",
    "traffic.rate": "low", "env.buffer_len": "20", "env.continuity_len": "3",
    "reward.alpha": "0.5", "reward.beta": "2", "reward.delta": "1.5",
    "agent.gamma": "0.5", "agent.learning_rate": "0.001", "agent.replay_capacity": "1000",
    "agent.min_observations": "64", "agent.minibatch": "16", "agent.target_sync": "50",
    "agent.hidden": "32,16", "agent.init_std": "0.02",
    "agent.eps0": "0.5", "agent.eps_inf": "0.05", "agent.eps_decay_steps": "500",
    "run.policy": "mt+f", "run.licensed_rbs": "5", "run.episodes": "3",
    "run.steps_per_episode": "40", "run.seed": "9", "run.eval_set": "false",
    "run.checkpoint": "true",
}
NON_DEFAULT = "".join(f"{key} = {value}\n" for key, value in NON_DEFAULT_VALUES.items())


def readme_key_table():
    """The (key, default) rows of README's "Keys and defaults" table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("Keys and defaults:\n\n", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip().strip("`") for cell in line.split("|")[1:3]]
            for line in table.splitlines()[2:]]


@pytest.mark.parametrize("key, default", readme_key_table())
def test_readme_key_table(key, default):
    assert key in harness._KEYS
    parser = harness._KEYS[key][2]
    assert parser(default) == harness._values(ExperimentConfig())[key]


def readme_summary_keys():
    """The keys README's Artifacts list names for `summary.json`: those in
    backticks before the colon of each of its sub-items."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    item = text.split("\n- `summary.json` — ", 1)[1].split("\n- ", 1)[0]
    return [key for line in item.splitlines() if line.startswith("  - ")
            for key in re.findall(r"`(\w+)`", line.split(":", 1)[0])]


def test_readme_summary_keys(tmp_path):
    harness.run(tiny_config(), out_dir=tmp_path)
    keys = readme_summary_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == json.loads((tmp_path / "summary.json").read_text()).keys()


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
        for text in ("inf", "Infinity", "INF", "+inf"):
            cfg = load_config(write_config(tmp_path, f"reward.delta = {text}\n"))
            assert cfg.delta == math.inf, text

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
        # A floor above the start held epsilon at the floor from step 0.
        pytest.param("agent.eps_inf = 0.05\nagent.eps0 = 0.01", id="eps_inf_above_eps0"),
        pytest.param("agent.eps_decay_steps = 0", id="eps_decay_steps"),
        # A warm-up longer than the replay memory can hold never ends.
        pytest.param("agent.min_observations = 40\nagent.replay_capacity = 10",
                     id="min_observations"),
        # Values that used to load and then stop a run midway: a math domain
        # error, a division by zero, numpy's argument checks, or (with the
        # default DQN policy) a NaN reward reported as diverged training.
        "channel.dist_min = -50", "channel.tx_power = -1",
        "run.seed = -1", "agent.init_std = -1",
        "reward.delta = nan",
        # Values that used to load, or failed under a key that does not exist.
        "env.buffer_len = 0", "env.continuity_len = 0",
        "channel.path_loss_exponent = nan", "channel.shadowing_sigma = nan",
        "channel.shadowing_sigma = -5",
        "reward.alpha = inf", "agent.learning_rate = inf", "agent.hidden = 0,8",
    ])
    def test_bad_agent_setting_names_key(self, tmp_path, setting):
        key = setting.split(" = ")[0]
        with pytest.raises(ConfigError, match="^" + key.replace(".", r"\.") + ":"):
            load_config(write_config(tmp_path, setting + "\n"))

    # A run length below one is refused when the config loads, not mid-run.
    @pytest.mark.parametrize("key", ["run.episodes", "run.steps_per_episode"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_run_length_below_one_rejected(self, tmp_path, key, value):
        message = f"{key}: must be in [1, inf), got {value}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, f"{key} = {value}\n"))

    # Each message names the file and the line.
    @pytest.mark.parametrize("text, message", [
        ("run.eval_set = maybe", "run.eval_set: not a boolean: 'maybe'"),
        ("run.policy mt", "expected 'key = value', got 'run.policy mt'"),
        ("run.seed = abc", "run.seed: invalid literal for int() with base 10: 'abc'"),
    ], ids=["not_boolean", "no_equals", "not_int"])
    def test_bad_line_names_file_and_line(self, tmp_path, text, message):
        path = write_config(tmp_path, f"run.episodes = 2\n{text}\n")
        message = f"{path}:2: {message}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    # The last of two lines used to win silently.
    def test_key_set_twice_rejected(self, tmp_path):
        path = write_config(tmp_path, "run.policy = mt\nrun.episodes = 2\nrun.policy = dqn\n")
        message = f"{path}:3: run.policy is already set on line 1"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    # Building a config checks each key once, in table order, so a bound it
    # reads has been checked already.
    def test_rule_names_only_earlier_keys(self):
        keys = list(harness._KEYS)
        named = [(bound, key) for key, (_, _, _, rule) in harness._KEYS.items()
                 if isinstance(rule, str) for bound in rule[1:-1].split(", ")
                 if bound in harness._KEYS]
        assert named
        for bound, key in named:
            assert keys.index(bound) < keys.index(key), (bound, key)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, "agent.optimizer = adam\n"))

    def test_removed_max_rl_steps_rejected(self, tmp_path):
        path = write_config(tmp_path, "run.episodes = 2\nrun.max_rl_steps = 100\n")
        message = f"{path}:2: unknown key 'run.max_rl_steps'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    @pytest.mark.parametrize("text", ["", NON_DEFAULT], ids=["defaults", "non_default"])
    def test_config_echo_round_trip(self, tmp_path, text):
        cfg = load_config(write_config(tmp_path, text, "in.cfg"))
        assert load_config(write_config(tmp_path, harness.config_echo(cfg), "echo.cfg")) == cfg

    def test_non_default_values_cover_every_key(self, tmp_path):
        assert list(NON_DEFAULT_VALUES) == list(harness._KEYS)
        echo = harness.config_echo(load_config(write_config(tmp_path, NON_DEFAULT)))
        default_echo = harness.config_echo(ExperimentConfig())
        assert len(echo.splitlines()) == len(harness._KEYS)
        for line, default_line in zip(echo.splitlines(), default_echo.splitlines()):
            assert line != default_line

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


def assert_accepted(tmp_path, key, value):
    """`key = value` loads as the default config, from a file and as an override."""
    assert load_config(write_config(tmp_path, f"{key} = {value}\n")) == \
        load_config(write_config(tmp_path, "", "empty.cfg"), {key: value}) == ExperimentConfig()


def assert_refused(tmp_path, key, value, message):
    """`key = value` fails with `message`, after the file and line from a file."""
    path = write_config(tmp_path, f"run.episodes = 2\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_config(path)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(write_config(tmp_path, "", "empty.cfg"), {key: value})


# Four channel keys only scaled every link's SNR, as `channel.tx_power` does
# (`test_channel.py::test_constant_only_scales_snr`). Key -> (its
# `ChannelParams` constant, its value as every `config_echo.txt` written while
# it was a key holds it, another value).
SNR_KEYS = {
    "channel.carrier_freq": ("carrier_freq", "1000000000.0", "2e9"),
    "channel.ref_distance": ("ref_distance", "10.0", "5"),
    "channel.noise_temp": ("noise_temp", "300.0", "290"),
    "channel.noise_figure": ("noise_figure_db", "9.0", "7"),
}


# Retired keys are constants now. Each one's old value still loads, as every
# `config_echo.txt` written while it was a key holds it.
class TestRetiredKey:
    def test_echo_has_33_lines(self):
        assert len(harness.config_echo(ExperimentConfig()).splitlines()) == 33

    # The time step is fixed at 1 ms.
    def test_duration_is_a_constant(self):
        assert "channel.rb_duration" not in harness._KEYS
        assert ch.ChannelParams.rb_duration == 1e-3
        with pytest.raises(TypeError):
            ch.ChannelParams(rb_duration=1e-3)

    @pytest.mark.parametrize("value", ["0.001", "1e-3"])
    def test_fixed_value_accepted(self, tmp_path, value):
        assert_accepted(tmp_path, "channel.rb_duration", value)

    @pytest.mark.parametrize("value", ["5e-4", "0", "nan", "abc"])
    def test_other_value_refused(self, tmp_path, value):
        assert_refused(tmp_path, "channel.rb_duration", value,
                       "channel.rb_duration: retired, as the time step is fixed at 1 ms; "
                       f"it may only be 0.001, got '{value}'")

    @pytest.mark.parametrize("key", SNR_KEYS)
    def test_snr_key_is_a_constant(self, key):
        attr, old, _ = SNR_KEYS[key]
        assert key not in harness._KEYS
        assert getattr(ch.ChannelParams, attr) == float(old)
        with pytest.raises(TypeError):
            ch.ChannelParams(**{attr: float(old)})

    @pytest.mark.parametrize("key", SNR_KEYS)
    def test_snr_key_old_value_accepted(self, tmp_path, key):
        _, old, _ = SNR_KEYS[key]
        assert_accepted(tmp_path, key, old)
        assert_accepted(tmp_path, key, f"{float(old):e}")

    @pytest.mark.parametrize("key, value", [
        *((key, value) for key, (_, _, other) in SNR_KEYS.items()
          for value in (other, "nan", "abc")),
        ("channel.carrier_freq", "inf"),
    ])
    def test_snr_key_other_value_refused(self, tmp_path, key, value):
        _, old, _ = SNR_KEYS[key]
        assert_refused(tmp_path, key, value,
                       f"{key}: retired, as it only scales every link's SNR, as "
                       f"channel.tx_power does; it may only be {old}, got '{value}'")


def with_value(key, value) -> ExperimentConfig:
    """The default config with one key set in Python, past any parser."""
    section, attr, _, _ = harness._KEYS[key]
    if section == "root":
        return ExperimentConfig(**{attr: value})
    part = {"channel": ch.ChannelParams, "agent": AgentConfig}[section](**{attr: value})
    return ExperimentConfig(**{section: part})


class TestValidateTypes:
    # A value of the wrong type used to pass the config check (and fail
    # midway or not at all) or fail it with a bare TypeError.
    @pytest.mark.parametrize("key, value", [
        ("run.seed", "3"), ("run.episodes", 2.5), ("env.buffer_len", True),
        ("run.eval_set", 1), ("agent.eps0", True), ("channel.num_rbs", 6.0),
        ("channel.dist_max", "100"), ("agent.hidden", (8.0,)), ("agent.hidden", [8]),
        ("agent.hidden", (True, 8)), ("traffic.rate", b"high"), ("run.policy", None),
        ("agent.replay_capacity", None),
    ])
    def test_wrong_type_names_key(self, key, value):
        message = f"{key}: wrong type, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            with_value(key, value)

    @pytest.mark.parametrize("key, value", [
        ("reward.alpha", 2), ("channel.tx_power", np.float64(0.2)),
        ("agent.hidden", (8,)), ("run.checkpoint", True),
    ])
    def test_right_type_passes(self, key, value):
        assert harness._values(with_value(key, value))[key] == value


# Every summary key `compare` reads, each with a value of its type; it reads
# the run's settings from `config_echo.txt`.
SUMMARY = {"status": "ok", "se_licensed_adjusted": 1.5, "se_unlicensed": 2,
           "acceptance_ratio": 1.0, "missed_ratio": 0.0}


def tiny_config(**kw):
    """A short `mt` run with a small DQN; `kw` overrides any field."""
    return ExperimentConfig(**{"policy": "mt", "episodes": 2, "steps_per_episode": 40,
                               "eval_set": False,
                               "agent": AgentConfig(hidden=(16,), min_observations=32), **kw})


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

    def test_different_seeds_differ(self, tmp_path):
        a = harness.run(tiny_config(seed=1))
        b = harness.run(tiny_config(seed=2))
        assert a.summary["delivered_bits"] != b.summary["delivered_bits"]

    # The environment reads every setting of its own from the config, and
    # the one `run` plays encodes a state of the length R and L give.
    def test_env_built_from_config(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path, NON_DEFAULT))
        env = SchedulingEnv(cfg, np.random.default_rng(0), np.random.default_rng(1))
        assert (env.R, env.L, env.C, env.steps_per_episode) == (8, 20, 3, 40)
        assert (env.alpha, env.beta, env.delta) == (0.5, 2.0, 1.5)
        assert env.params is cfg.channel
        assert env.catalog == tr.service_catalog("low") != tr.service_catalog("high")
        played, reset = [], SchedulingEnv.reset
        monkeypatch.setattr(SchedulingEnv, "reset", lambda env: (played.append(env), reset(env)))
        harness.run(dataclasses.replace(cfg, episodes=1))
        assert len(played) == 1 and played[0].catalog == env.catalog
        assert len(played[0].encode()) == played[0].state_dim() == (8 + 3) * 20 + 8 + 1

    # The output directory is made before the first RL step, so a path that
    # cannot be one fails at once, not after the whole run.
    def test_bad_out_dir_fails_before_the_run(self, tmp_path, monkeypatch):
        (tmp_path / "file").write_text("")

        def reset(env):
            raise AssertionError("the run started")

        monkeypatch.setattr(SchedulingEnv, "reset", reset)
        with pytest.raises(NotADirectoryError):
            harness.run(tiny_config(), out_dir=tmp_path / "file" / "sub")

    # The evaluation set diverges in its first time step (the training set
    # has 20, and trains only from its 100th RL step): the record is that
    # set's, with no SE to report, and holds no checkpoint.
    def test_diverged_evaluation_set_leaves_its_record(self, tmp_path):
        cfg = ExperimentConfig(policy="dqn", episodes=1, steps_per_episode=20, checkpoint=True,
                               agent=AgentConfig(learning_rate=1.0, min_observations=100,
                                                 hidden=(16,)))
        with pytest.raises(TrainingDiverged):
            harness.run(cfg, out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "diverged" and summary["time_steps"] == 0
        assert [summary[k] for k in ("se_licensed", "se_licensed_adjusted", "se_unlicensed")] \
            == [None] * 3
        assert (tmp_path / "learning_curve.csv").read_text() == "step,value\n"
        assert not (tmp_path / "qnetwork.npz").exists()

    def test_checkpoint_written(self, tmp_path):
        harness.run(tiny_config(policy="dqn", checkpoint=True), out_dir=tmp_path)
        assert (tmp_path / "qnetwork.npz").exists()

    # A rerun into a directory removes the earlier run's checkpoint and
    # latency CSVs that it does not write itself, and a `seed.txt` that older
    # versions wrote: `config_echo.txt` alone records the seed.
    def test_rerun_clears_earlier_artifacts(self, tmp_path):
        cfg = tiny_config(policy="dqn", checkpoint=True, episodes=1, steps_per_episode=60)
        harness.run(cfg, out_dir=tmp_path / "out")
        assert (tmp_path / "out" / "qnetwork.npz").exists()
        (tmp_path / "out" / "seed.txt").write_text("7\n")
        for d in ("out", "fresh"):
            harness.run(tiny_config(), out_dir=tmp_path / d)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            sorted(p.name for p in (tmp_path / "fresh").iterdir())

    # The DQN plays both sets, each of the full length, and learns in both.
    def test_run_holds_both_dqn_sets(self):
        cfg = tiny_config(policy="dqn", eval_set=True)
        run = harness.run(cfg)
        assert run.train_metrics is not run.eval_metrics and run.status == "ok"
        for metrics in (run.train_metrics, run.eval_metrics):
            assert metrics.time_steps == cfg.episodes * cfg.steps_per_episode
        assert run.policy.memory.pushed == \
            2 * cfg.episodes * cfg.steps_per_episode * cfg.channel.num_rbs

    @pytest.mark.parametrize("policy", [p for p in harness.POLICIES if p != "dqn"])
    def test_baseline_plays_one_set(self, policy):
        run = harness.run(tiny_config(policy=policy, eval_set=True))
        assert run.train_metrics is run.eval_metrics and run.status == "ok"

    # Each artifact is written to a temp file and then moved into place, so
    # a write that fails part-way leaves the artifact of the run before whole,
    # and no temp file behind.
    def test_failed_write_keeps_previous_summary(self, tmp_path, monkeypatch):
        harness.run(tiny_config(seed=1), out_dir=tmp_path)
        before = (tmp_path / "summary.json").read_bytes()
        names = sorted(p.name for p in tmp_path.iterdir())

        def failing_dump(obj, f, **kw):
            f.write(json.dumps(obj, **kw)[:40])
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="no space"):
            harness.run(tiny_config(seed=2), out_dir=tmp_path)
        assert (tmp_path / "summary.json").read_bytes() == before
        # The second run writes its CSVs whole; it may add a latency CSV.
        after = sorted(p.name for p in tmp_path.iterdir())
        assert set(names) <= set(after)
        assert all(re.fullmatch(r"latency_type\d+\.csv", name)
                   for name in set(after) - set(names))

    # A config cannot change after it is checked, and a changed copy is
    # checked like a file: `minibatch = 0` used to train on empty minibatches,
    # and `min_observations = 10` to stop midway when sampling a minibatch.
    @pytest.mark.parametrize("attr, value", [("minibatch", 0), ("min_observations", 10)])
    def test_changed_agent_setting_rejected(self, attr, value):
        cfg = tiny_config(policy="dqn")
        for part in (cfg, cfg.agent):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, attr, value)
        with pytest.raises(ConfigError, match=r"^agent\.minibatch: "):
            dataclasses.replace(cfg, agent=dataclasses.replace(cfg.agent, **{attr: value}))

    def test_invalid_policy_reported(self):
        with pytest.raises(ConfigError, match="policy"):
            dataclasses.replace(tiny_config(), policy="ppo")

    # Each name against its reference rule over one seeded episode; no golden
    # run pins plain `ml`.
    @pytest.mark.parametrize("name", harness.POLICIES)
    def test_make_policy_builds_each_policy(self, name):
        cfg = tiny_config(policy=name)
        env = seeded_env(cfg, 3)
        policy = harness.make_policy(cfg, env.state_dim(), np.random.default_rng(1),
                                     np.random.default_rng(2), np.random.default_rng(4))
        if name == "dqn":
            assert isinstance(policy, DQNPolicy)
            assert policy.net.layer_sizes[-1] == env.L + 1
            return
        twin = np.random.default_rng(4)
        base = oracle_mt if name.startswith("mt") else oracle_ml
        env.reset()
        served = reserved = 0
        while not env.done:
            if name == "random":
                expected = int(twin.integers(0, env.L + 1))
            elif name.endswith("+f") and env.psi > cfg.licensed_rbs:
                expected = 0
                reserved += base(env) != 0
            else:
                expected = base(env)
            served += expected != 0
            assert policy.act(env) == expected
            env.step(expected)
        assert served > 0
        assert reserved > 0 or not name.endswith("+f")


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

    def test_dqn_encodes_once_per_step(self, encodes, monkeypatch):
        policies, pushed = [], []
        make_policy = harness.make_policy

        def kept_policy(*args):
            policies.append(make_policy(*args))
            memory = policies[-1].memory
            push = memory.push

            def recorded_push(action, reward, next_state, terminal):
                assert memory.state is not None     # else the row's state is NaN
                pushed.append((memory.state.copy(), next_state.copy()))
                push(action, reward, next_state, terminal)

            memory.push = recorded_push
            return policies[-1]

        monkeypatch.setattr(harness, "make_policy", kept_policy)
        cfg = tiny_config(policy="dqn", eval_set=True)
        harness.run(cfg)
        (policy,) = policies
        steps = cfg.steps_per_episode * cfg.channel.num_rbs
        # Per episode of either set: one fresh encode before the first step
        # (rl_step 0), then one after each step.
        assert encodes == list(range(steps + 1)) * (2 * cfg.episodes)
        assert policy.memory.pushed >= cfg.agent.min_observations   # it trained

        mem = policy.memory
        n = len(mem)
        assert n == 2 * cfg.episodes * steps
        ends = np.flatnonzero(mem.terminal[:n])
        assert list(ends) == [steps * (e + 1) - 1 for e in range(2 * cfg.episodes)]
        # Within an episode, the state the policy acts on is the one it
        # pushed as the last step's next state; the ring holds each once.
        states, next_states = (np.stack(column) for column in zip(*pushed))
        within = ~mem.terminal[:n - 1]
        assert np.array_equal(next_states[:n - 1][within], states[1:n][within])
        assert np.array_equal(mem.states[:n], states)
        assert np.array_equal(mem.last_next_state, next_states[-1])
        assert np.isfinite(mem.states[:n]).all() and np.isfinite(mem.last_next_state).all()
        # The first state of an episode is the freshly reset environment:
        # an empty buffer, zero continuity counters, the first RB.
        fresh = np.zeros(mem.states.shape[1], dtype=np.float32)
        fresh[-1] = 1 / cfg.channel.num_rbs
        for first in [0, *(ends[:-1] + 1)]:
            assert np.array_equal(mem.states[first], fresh)
        # Each episode ends with a terminal push, which drops the current state.
        assert mem.state is None


def signal_at(monkeypatch, *calls, signum=signal.SIGINT):
    """Make `SchedulingEnv.step` send `signum` to this process at each of
    `calls` (counted from 1); returns the list of steps taken."""
    step, taken = SchedulingEnv.step, []

    def signalling_step(env, action):
        taken.append(action)
        if len(taken) in calls:
            os.kill(os.getpid(), signum)
        return step(env, action)

    monkeypatch.setattr(SchedulingEnv, "step", signalling_step)
    return taken


def handlers():
    return [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]


class TestInterrupt:
    RL_STEPS = 40 * 6    # per episode of `tiny_config`

    # The signal comes in episode 2 of 3, so the record is that of a
    # 2-episode run: each reset draws the same traffic and channel whatever
    # the episode count.
    def test_interrupted_run_leaves_its_record(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, "run.policy = mt\nrun.episodes = 3\n"
                                     "run.steps_per_episode = 40\n")
        out, done = tmp_path / "out", tmp_path / "done"
        signal_at(monkeypatch, self.RL_STEPS + 50)
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 130
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == "error: run interrupted at an episode boundary\n"
        monkeypatch.undo()
        assert cli.main(["run", str(cfg), "--episodes", "2", "--out", str(done)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "interrupted"
        assert summary == {**json.loads((done / "summary.json").read_text()),
                           "status": "interrupted"}
        csvs = sorted(p.name for p in done.glob("*.csv"))
        assert sorted(p.name for p in out.glob("*.csv")) == csvs
        for name in csvs:
            assert (out / name).read_bytes() == (done / name).read_bytes()
        capsys.readouterr()
        assert cli.main(["compare", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out / 'summary.json'}: the run was " \
                                          "interrupted, so it has no result to compare\n"

    # The handlers in place before a run are back after it, however it ends.
    # The test's own SIGTERM handler raises `KeyboardInterrupt`, so a
    # SIGTERM that the run failed to defer would not end the test process.
    @pytest.mark.parametrize("end", ["ok", "diverged", "SIGINT", "SIGTERM"])
    def test_handlers_restored(self, tmp_path, monkeypatch, end):
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            before = handlers()
            cfg = tiny_config(policy="dqn" if end == "diverged" else "mt")
            if end == "diverged":
                cfg = dataclasses.replace(
                    cfg, episodes=1, agent=dataclasses.replace(cfg.agent, learning_rate=1e6))
                with pytest.raises(TrainingDiverged), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    harness.run(cfg, out_dir=tmp_path)
            elif end == "ok":
                assert harness.run(cfg, out_dir=tmp_path).status == "ok"
            else:
                signal_at(monkeypatch, 10, signum=getattr(signal, end))
                with pytest.raises(KeyboardInterrupt, match="episode boundary"):
                    harness.run(cfg, out_dir=tmp_path)
            assert handlers() == before
            status = json.loads((tmp_path / "summary.json").read_text())["status"]
            assert status == ("interrupted" if end.startswith("SIG") else end)
        finally:
            signal.signal(signal.SIGTERM, previous)

    # A DQN run that stops in its training set records that set, as the same
    # run with no evaluation set does, not the evaluation set, which has not
    # played.
    @pytest.mark.parametrize("end", ["diverged", "interrupted"])
    def test_stopped_training_set_leaves_its_record(self, tmp_path, monkeypatch, end):
        for eval_set in (False, True):
            cfg = tiny_config(policy="dqn", eval_set=eval_set)
            if end == "diverged":    # in episode 1, once training starts
                cfg = dataclasses.replace(cfg, agent=dataclasses.replace(
                    cfg.agent, learning_rate=1e6, min_observations=200))
            else:
                signal_at(monkeypatch, self.RL_STEPS + 50)
            with pytest.raises(TrainingDiverged if end == "diverged" else KeyboardInterrupt), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                harness.run(cfg, out_dir=tmp_path / str(eval_set))
            monkeypatch.undo()
        alone, first = tmp_path / "False", tmp_path / "True"
        summary = json.loads((first / "summary.json").read_text())
        assert summary["status"] == end and summary["time_steps"] > 0
        assert summary == json.loads((alone / "summary.json").read_text())
        csvs = sorted(p.name for p in alone.glob("*.csv"))
        assert "latency_type1.csv" in csvs
        assert sorted(p.name for p in first.glob("*.csv")) == csvs
        for name in csvs:
            assert (first / name).read_bytes() == (alone / name).read_bytes()

    # An ignored signal stays ignored: the run plays to its end.
    def test_ignored_signal_stays_ignored(self, tmp_path, monkeypatch):
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            signal_at(monkeypatch, 10)
            try:
                run = harness.run(tiny_config(), out_dir=tmp_path)
            except KeyboardInterrupt:
                pytest.fail("the ignored SIGINT stopped the run")
            assert run.status == "ok" and run.train_metrics.time_steps == 2 * 40
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, previous)

    # A second signal before the boundary goes to the previous handler at
    # once (a `KeyboardInterrupt` mid-episode) and writes no record.
    def test_second_signal_stops_at_once(self, tmp_path, monkeypatch):
        before, taken = handlers(), signal_at(monkeypatch, 10, 20)
        with pytest.raises(KeyboardInterrupt, match="^$"):
            harness.run(tiny_config(), out_dir=tmp_path)
        assert 20 <= len(taken) < self.RL_STEPS
        assert list(tmp_path.iterdir()) == []
        assert handlers() == before

    # No handler can be set off the main thread, so the run sets none.
    def test_run_off_main_thread(self):
        runs = []
        thread = threading.Thread(target=lambda: runs.append(harness.run(tiny_config())))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert [run.status for run in runs] == ["ok"]


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

    # A row's mean +/- std is over seeds of one config: two reward weights
    # used to share a row, and a directory given twice to count twice.
    def test_row_mixing_reward_weights_rejected(self, tmp_path):
        harness.run(tiny_config(), out_dir=tmp_path / "a")
        harness.run(tiny_config(beta=2.0), out_dir=tmp_path / "b")
        message = "mt: runs in one row differ in reward.beta"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.compare([tmp_path / "a", tmp_path / "b"])

    # These two used to print as one row, `mt 4.1423 ± 0.6173`.
    def test_row_mixing_any_setting_rejected(self, tmp_path):
        harness.run(tiny_config(episodes=1), out_dir=tmp_path / "a")
        harness.run(tiny_config(seed=1, episodes=3, steps_per_episode=200,
                                channel=ch.ChannelParams(tx_power_total=0.001)),
                    out_dir=tmp_path / "b")
        message = "mt: runs in one row differ in channel.tx_power, run.episodes, " \
                  "run.steps_per_episode"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.compare([tmp_path / "a", tmp_path / "b"])

    # These used to be refused, with `mt: runs in one row differ in
    # agent.min_observations, agent.hidden, run.checkpoint`, though a
    # baseline reads no agent key, plays one set and writes no checkpoint,
    # and only a `+f` policy reads `run.licensed_rbs`.
    def test_row_pools_over_unread_settings(self, tmp_path):
        harness.run(tiny_config(checkpoint=True), out_dir=tmp_path / "a")
        harness.run(tiny_config(seed=1, agent=AgentConfig()), out_dir=tmp_path / "b")
        harness.run(tiny_config(seed=2, eval_set=True, licensed_rbs=2), out_dir=tmp_path / "c")
        lines = harness.compare([tmp_path / d for d in "abc"]).splitlines()
        assert len(lines) == 2 and lines[1].startswith("mt ")

    # The DQN reads its agent keys, so they split its rows; its checkpoint
    # does not.
    def test_dqn_row_mixing_agent_setting_rejected(self, tmp_path):
        harness.run(tiny_config(policy="dqn"), out_dir=tmp_path / "a")
        harness.run(tiny_config(policy="dqn", seed=1, checkpoint=True,
                                agent=AgentConfig(hidden=(8,), min_observations=32)),
                    out_dir=tmp_path / "b")
        message = "dqn: runs in one row differ in agent.hidden"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.compare([tmp_path / "a", tmp_path / "b"])

    def test_row_repeating_a_seed_rejected(self, tmp_path):
        harness.run(tiny_config(), out_dir=tmp_path)
        with pytest.raises(ConfigError, match="^mt: a seed appears twice in one row$"):
            harness.compare([tmp_path, tmp_path])

    def test_no_summary_names_directory(self, tmp_path):
        message = f"no summary.json in {tmp_path}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.compare([tmp_path])

    def test_nothing_to_compare(self):
        with pytest.raises(ConfigError, match="^nothing to compare$"):
            harness.compare([])

    def test_mixed_scenarios_rejected(self, tmp_path):
        harness.run(tiny_config(), out_dir=tmp_path / "r0")
        harness.run(tiny_config(buffer_len=20), out_dir=tmp_path / "r1")
        message = "mismatched scenario across runs: env.buffer_len"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.compare([tmp_path / "r0", tmp_path / "r1"])


class TestCli:
    def test_run_with_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.episodes = 1\nrun.steps_per_episode = 30\n"
                                     "run.eval_set = false\nagent.hidden = 8\n")
        rc = cli.main(["run", str(cfg), "--policy", "mt", "--seed", "3",
                       "--out", str(tmp_path / "out"), "--buffer", "5"])
        assert rc == 0
        config = load_config(tmp_path / "out" / "config_echo.txt")
        assert config.policy == "mt" and config.buffer_len == 5
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert "se_licensed" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["run.episodes", "run.steps_per_episode"])
    def test_run_length_zero_exit_code(self, tmp_path, capsys, key):
        settings = {"run.episodes": 1, "run.steps_per_episode": 20, key: 0}
        cfg = write_config(tmp_path, "run.policy = mt\n" + "".join(
            f"{k} = {v}\n" for k, v in settings.items()))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key}: must be in [1, inf), got 0\n"
        assert not out.exists()  # rejected before anything is written

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.policy = mt\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: run.seed: must be in [0, inf), got -1\n"
        assert not out.exists()

    # Each flag is a shorthand for one key, parsed and checked like the file,
    # and wins over the file's line of that key (`--policy`, `--episodes`).
    @pytest.mark.parametrize("flag, key, value", [
        ("--seed", "run.seed", "3"), ("--policy", "run.policy", "ml"),
        ("--episodes", "run.episodes", "2"), ("--rate", "traffic.rate", "low"),
        ("--continuity", "env.continuity_len", "3"), ("--buffer", "env.buffer_len", "5"),
    ])
    def test_flag_sets_its_key(self, tmp_path, flag, key, value):
        cfg = write_config(tmp_path, "run.policy = mt\nrun.episodes = 1\n"
                                     "run.steps_per_episode = 10\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), flag, value, "--out", str(out)]) == 0
        assert f"{key} = {value}" in (out / "config_echo.txt").read_text().splitlines()

    @pytest.mark.parametrize("flag, value, key", [
        ("--policy", "ppo", "run.policy"), ("--rate", "medium", "traffic.rate"),
        ("--continuity", "0", "env.continuity_len"),
    ])
    def test_bad_flag_value_names_key(self, tmp_path, capsys, flag, value, key):
        cfg = write_config(tmp_path, "run.policy = mt\n")
        assert cli.main(["run", str(cfg), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: must be in ")

    def test_help_names_each_flags_key(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--help"])
        assert exit_info.value.code == 0
        help_text = capsys.readouterr().out
        for flag, key in cli._FLAGS.items():
            assert re.search(rf"{flag} VALUE +set {re.escape(key)}\n", help_text), flag

    def test_diverged_run_leaves_its_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "agent.learning_rate = 1e6\n"
                                     "agent.min_observations = 40\n"
                                     "run.episodes = 1\nrun.steps_per_episode = 20\n"
                                     "run.eval_set = false\nagent.hidden = 16\n"
                                     "run.checkpoint = true\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("error: training diverged: non-finite training loss")
        summary = json.loads((out / "summary.json").read_text())
        # Training starts at the 40th of 120 RL steps; the counters stop where it diverged.
        assert summary["status"] == "diverged" and 6 <= summary["time_steps"] < 20
        assert summary["accepted"] == summary["satisfied"] + summary["missed"] + \
            summary["abandoned"]
        assert sorted(p.name for p in out.iterdir()) == \
            ["config_echo.txt", "learning_curve.csv", "summary.json"]
        # `compare` refuses it, naming the file.
        assert cli.main(["compare", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: {out / 'summary.json'}: the run diverged, so it has no result " \
                      "to compare\n"

    def test_retired_key_value_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.policy = mt\nchannel.noise_figure = 7\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith(f"error: {cfg}:2: channel.noise_figure: retired, as it only "
                              "scales every link's SNR, as channel.tx_power does; ")
        assert not out.exists()

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes("\ufeffrun.policy = mt\n".encode("utf-16-le"))  # starts ff fe
        assert cli.main(["run", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {cfg}: not a text file (")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_config_with_utf8_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfrun.policy = mt\nrun.episodes = 1\n"
                        b"run.steps_per_episode = 10\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        assert "run.policy = mt" in (out / "config_echo.txt").read_text().splitlines()

    # Each used to end in a traceback: a KeyError, a JSONDecodeError and a
    # ValueError from the table's float array.
    @pytest.mark.parametrize("text, key", [
        ("{}", None), ("not json", None),
        (json.dumps({**SUMMARY, "se_licensed_adjusted": "x"}), "se_licensed_adjusted"),
        # JSON's true used to read as 1 and print as 1.0000.
        (json.dumps({**SUMMARY, "acceptance_ratio": True}), "acceptance_ratio"),
        (json.dumps({**SUMMARY, "se_licensed_adjusted": False}), "se_licensed_adjusted"),
    ], ids=["no_keys", "not_json", "bad_se", "bool_numbers", "bool_se"])
    def test_compare_bad_summary_names_file(self, tmp_path, capsys, text, key):
        (tmp_path / "config_echo.txt").write_text(harness.config_echo(ExperimentConfig()))
        (tmp_path / "summary.json").write_text(text)
        assert cli.main(["compare", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'summary.json'}: ")
        assert key is None or f": {key}: wrong type, got " in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_compare_reads_typed_summary(self, tmp_path, capsys):
        (tmp_path / "config_echo.txt").write_text(
            harness.config_echo(ExperimentConfig(policy="mt+f")))
        (tmp_path / "summary.json").write_text(json.dumps(SUMMARY))
        assert cli.main(["compare", str(tmp_path)]) == 0
        assert "mt+f(4/2)" in capsys.readouterr().out

    def test_compare_without_config_echo_names_file(self, tmp_path, capsys):
        harness.run(tiny_config(), out_dir=tmp_path)
        (tmp_path / "config_echo.txt").unlink()
        assert cli.main(["compare", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "config_echo.txt") in err

    # Directories written while the five retired keys were keys echo each
    # at its old value, after the key their echo held before it (none
    # before `channel.carrier_freq`), and still compare.
    def test_compare_reads_echo_with_retired_key(self, tmp_path, capsys):
        old_lines = [(None, "channel.carrier_freq = 1000000000.0"),
                     ("channel.carrier_freq", "channel.ref_distance = 10.0"),
                     ("channel.rb_bandwidth", "channel.rb_duration = 0.001"),
                     ("channel.num_rbs", "channel.noise_temp = 300.0"),
                     ("channel.noise_temp", "channel.noise_figure = 9.0")]
        dirs = [tmp_path / "r0", tmp_path / "r1"]
        for seed, out in enumerate(dirs):
            harness.run(tiny_config(seed=seed), out_dir=out)
        table = harness.compare(dirs)
        for out in dirs:
            echo = out / "config_echo.txt"
            lines = echo.read_text().splitlines()
            for before, line in old_lines:
                keys = [text.split(" = ")[0] for text in lines]
                lines.insert(0 if before is None else keys.index(before) + 1, line)
            assert len(lines) == len(harness._KEYS) + 5
            echo.write_text("\n".join(lines) + "\n")
        assert cli.main(["compare", *map(str, dirs)]) == 0
        assert capsys.readouterr().out == table + "\n"
        assert len(table.splitlines()) == 2 and table.splitlines()[1].startswith("mt ")

    # A directory written while `run.freeze_eval` was a key has no config
    # that loads today.
    def test_compare_refuses_unknown_key_in_config_echo(self, tmp_path, capsys):
        harness.run(tiny_config(), out_dir=tmp_path)
        echo = tmp_path / "config_echo.txt"
        echo.write_text(echo.read_text() + "run.freeze_eval = false\n")
        assert cli.main(["compare", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            f"error: {echo}:{len(harness._KEYS) + 1}: unknown key 'run.freeze_eval'\n"
