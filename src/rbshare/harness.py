"""Experiment orchestration: configuration parsing, the train/evaluate
two-set protocol, seeding, and artifact emission.

Config files are flat `section.key = value` text. Every stochastic draw
derives from the single master seed through named substreams, so identical
config + seed reproduces a run bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rbshare import channel as ch
from rbshare import traffic as tr
from rbshare.agent import AgentConfig, DQNPolicy, CallablePolicy, fixed_split, \
    ml_action, mt_action, random_policy
from rbshare.environment import SchedulingEnv
from rbshare.metrics import RunMetrics, UnlicensedLink

POLICIES = ("dqn", "mt", "ml", "random", "mt+f", "ml+f")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    channel: ch.ChannelParams = field(default_factory=ch.ChannelParams)
    agent: AgentConfig = field(default_factory=AgentConfig)
    rate: str = "high"
    buffer_len: int = 10
    continuity_len: int = 2
    alpha: float = 1.0
    beta: float = 0.0
    delta: float = math.inf
    policy: str = "dqn"
    licensed_rbs: int = 4
    episodes: int = 133
    steps_per_episode: int = 500
    seed: int = 0
    eval_set: bool = True        # run the second (evaluation) set
    freeze_eval: bool = False    # disable learning during the evaluation set
    max_rl_steps: int | None = None
    checkpoint: bool = False
    learning_window: int = 1000  # RL steps, for the emitted learning curve

    def validate(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"run.policy: unknown policy {self.policy!r}")
        if self.rate not in tr.RATE_PROFILES:
            raise ConfigError(f"traffic.rate: must be low|high, got {self.rate!r}")
        for name in ("buffer_len", "continuity_len", "episodes", "steps_per_episode",
                     "learning_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"run.{name}: must be >= 1")
        if self.max_rl_steps is not None and self.max_rl_steps < 1:
            raise ConfigError("run.max_rl_steps: must be >= 1")
        if not 1 <= self.licensed_rbs <= self.channel.num_rbs:
            raise ConfigError("run.licensed_rbs: must be in 1..R")
        if self.alpha < 0 or self.beta < 0 or self.delta <= 0:
            raise ConfigError("reward.alpha/beta must be >= 0 and reward.delta > 0")


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_delta(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_hidden(text: str) -> tuple:
    return tuple(int(part) for part in text.replace(",", " ").split())


# dotted config key -> (target section, attribute, parser)
_KEYS = {
    "channel.carrier_freq": ("channel", "carrier_freq", float),
    "channel.ref_distance": ("channel", "ref_distance", float),
    "channel.path_loss_exponent": ("channel", "path_loss_exponent", float),
    "channel.shadowing_sigma": ("channel", "shadowing_sigma", float),
    "channel.corr_param": ("channel", "corr_param", float),
    "channel.coherence_time": ("channel", "coherence_time", int),
    "channel.dist_min": ("channel", "dist_min", float),
    "channel.dist_max": ("channel", "dist_max", float),
    "channel.tx_power": ("channel", "tx_power_total", float),
    "channel.rb_bandwidth": ("channel", "rb_bandwidth", float),
    "channel.rb_duration": ("channel", "rb_duration", float),
    "channel.num_rbs": ("channel", "num_rbs", int),
    "channel.noise_temp": ("channel", "noise_temp", float),
    "channel.noise_figure": ("channel", "noise_figure_db", float),
    "traffic.rate": ("root", "rate", str),
    "env.buffer_len": ("root", "buffer_len", int),
    "env.continuity_len": ("root", "continuity_len", int),
    "reward.alpha": ("root", "alpha", float),
    "reward.beta": ("root", "beta", float),
    "reward.delta": ("root", "delta", _parse_delta),
    "agent.gamma": ("agent", "gamma", float),
    "agent.learning_rate": ("agent", "learning_rate", float),
    "agent.minibatch": ("agent", "minibatch", int),
    "agent.target_sync": ("agent", "target_sync", int),
    "agent.min_observations": ("agent", "min_observations", int),
    "agent.replay_capacity": ("agent", "replay_capacity", int),
    "agent.hidden": ("agent", "hidden", _parse_hidden),
    "agent.init_std": ("agent", "init_std", float),
    "agent.eps0": ("agent", "eps0", float),
    "agent.eps_inf": ("agent", "eps_inf", float),
    "agent.eps_decay_steps": ("agent", "eps_decay_steps", int),
    "run.policy": ("root", "policy", str),
    "run.licensed_rbs": ("root", "licensed_rbs", int),
    "run.episodes": ("root", "episodes", int),
    "run.steps_per_episode": ("root", "steps_per_episode", int),
    "run.seed": ("root", "seed", int),
    "run.eval_set": ("root", "eval_set", _parse_bool),
    "run.freeze_eval": ("root", "freeze_eval", _parse_bool),
    "run.max_rl_steps": ("root", "max_rl_steps", int),
    "run.checkpoint": ("root", "checkpoint", _parse_bool),
    "run.learning_window": ("root", "learning_window", int),
}


def load_config(path) -> ExperimentConfig:
    """Parse a flat key = value config file; unset keys keep their defaults."""
    channel_kwargs: dict = {}
    agent_kwargs: dict = {}
    root_kwargs: dict = {}
    targets = {"channel": channel_kwargs, "agent": agent_kwargs, "root": root_kwargs}

    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        section, attr, parser = _KEYS[key]
        try:
            targets[section][attr] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc

    try:
        channel = ch.ChannelParams(**channel_kwargs)
        agent = AgentConfig(**agent_kwargs)
        config = ExperimentConfig(channel=channel, agent=agent, **root_kwargs)
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def config_echo(config: ExperimentConfig) -> str:
    """Canonical dump: every known key in fixed order."""
    lines = []
    sections = {"channel": config.channel, "agent": config.agent, "root": config}
    for key, (section, attr, _) in _KEYS.items():
        value = getattr(sections[section], attr)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class RunArtifacts:
    out_dir: Path | None
    summary: dict
    train_metrics: RunMetrics
    eval_metrics: RunMetrics


def make_policy(config: ExperimentConfig, state_dim: int,
                init_rng, explore_rng, policy_rng):
    name = config.policy
    if name == "dqn":
        return DQNPolicy(state_dim, config.buffer_len + 1, config.agent,
                         init_rng, explore_rng)
    if name == "mt":
        return CallablePolicy(mt_action)
    if name == "ml":
        return CallablePolicy(ml_action)
    if name == "random":
        return random_policy(policy_rng)
    if name == "mt+f":
        return fixed_split(CallablePolicy(mt_action), config.licensed_rbs)
    if name == "ml+f":
        return fixed_split(CallablePolicy(ml_action), config.licensed_rbs)
    raise ConfigError(f"unknown policy {name!r}")


def _run_set(env: SchedulingEnv, policy, metrics: RunMetrics, config: ExperimentConfig,
             steps_done: int) -> int:
    # Bound once per set. `env.reset` is looked up at every episode, so a
    # patched class method (the benchmark's first-step hook) still applies.
    act, step, record = policy.act, env.step, metrics.record
    observe = policy.observe if isinstance(policy, DQNPolicy) else None
    rl_steps = config.steps_per_episode * env.R
    for _ in range(config.episodes):
        if config.max_rl_steps is not None and steps_done >= config.max_rl_steps:
            break
        env.reset()
        for _ in range(rl_steps):
            action = act(env)
            out = step(action)
            if observe is not None:
                observe(env, action, out.reward, out.terminal)
            record(out)
        steps_done += rl_steps
    return steps_done


def run(config: ExperimentConfig, out_dir=None) -> RunArtifacts:
    """Execute a full experiment: training set, then (optionally) the
    evaluation set with exploration pinned at its floor."""
    config.validate()
    ss = np.random.SeedSequence(config.seed)
    init_ss, explore_ss, traffic_ss, channel_ss, unlic_train_ss, unlic_eval_ss, policy_ss = \
        ss.spawn(7)
    env = SchedulingEnv(
        params=config.channel,
        table=ch.default_cqi_table(),
        catalog=tr.service_catalog(config.rate),
        buffer_len=config.buffer_len,
        continuity_len=config.continuity_len,
        alpha=config.alpha,
        beta=config.beta,
        delta=config.delta,
        steps_per_episode=config.steps_per_episode,
        traffic_rng=np.random.default_rng(traffic_ss),
        channel_rng=np.random.default_rng(channel_ss),
    )
    policy = make_policy(config, env.state_dim(),
                         np.random.default_rng(init_ss),
                         np.random.default_rng(explore_ss),
                         np.random.default_rng(policy_ss))

    def new_metrics(unlic_ss):
        return RunMetrics(
            rb_bits=env.rb_bits, num_rbs=env.R, continuity_len=env.C,
            unlicensed=UnlicensedLink(config.channel, env.table,
                                      np.random.default_rng(unlic_ss)),
        )

    train_metrics = new_metrics(unlic_train_ss)
    steps = _run_set(env, policy, train_metrics, config, 0)

    run_eval = config.eval_set and config.policy == "dqn"
    if run_eval:
        eval_metrics = new_metrics(unlic_eval_ss)
        policy.eps_override = config.agent.eps_inf
        policy.frozen = config.freeze_eval
        _run_set(env, policy, eval_metrics, config, steps)
    else:
        eval_metrics = train_metrics

    summary = eval_metrics.summary()
    summary.update({
        "policy": config.policy,
        "seed": config.seed,
        "num_rbs": config.channel.num_rbs,
        "buffer_len": config.buffer_len,
        "continuity_len": config.continuity_len,
        "rate": config.rate,
        "alpha": config.alpha,
        "beta": config.beta,
        "delta": "inf" if math.isinf(config.delta) else config.delta,
        "licensed_rbs": config.licensed_rbs if config.policy.endswith("+f") else None,
    })

    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "config_echo.txt").write_text(config_echo(config))
        (out_path / "seed.txt").write_text(f"{config.seed}\n")
        with open(out_path / "learning_curve.csv", "w") as f:
            f.write("step,value\n")
            for step, value in train_metrics.windowed_se(config.learning_window):
                f.write(f"{step},{value!r}\n")
        for svc_id in sorted(eval_metrics.latency):
            with open(out_path / f"latency_type{svc_id}.csv", "w") as f:
                f.write("latency,cdf\n")
                for lat, frac in eval_metrics.latency_cdf(svc_id):
                    f.write(f"{lat},{frac!r}\n")
        with open(out_path / "summary.json", "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        if config.checkpoint and config.policy == "dqn":
            policy.net.save(out_path / "qnetwork.npz")

    return RunArtifacts(out_path, summary, train_metrics, eval_metrics)


_SCENARIO_KEYS = ("num_rbs", "buffer_len", "continuity_len", "rate")


def compare(artifact_dirs: list) -> str:
    """Side-by-side table of the headline metrics across runs.

    Runs must share the scenario parameters (R, L, C, rate); rows group
    policies, aggregating seeds as mean +/- sample std.
    """
    summaries = []
    for d in artifact_dirs:
        path = Path(d) / "summary.json"
        if not path.exists():
            raise ConfigError(f"no summary.json in {d}")
        summaries.append(json.loads(path.read_text()))
    if len(summaries) < 1:
        raise ConfigError("nothing to compare")
    scenario = {k: summaries[0][k] for k in _SCENARIO_KEYS}
    for s in summaries[1:]:
        if {k: s[k] for k in _SCENARIO_KEYS} != scenario:
            raise ConfigError("mismatched scenario parameters across runs")

    groups: dict = {}
    for s in summaries:
        label = s["policy"]
        if s.get("licensed_rbs"):
            label += f"({s['licensed_rbs']}/{s['num_rbs'] - s['licensed_rbs']})"
        groups.setdefault(label, []).append(s)

    metrics = ("se_licensed_adjusted", "se_unlicensed", "acceptance_ratio",
               "missed_ratio")
    header = f"{'policy':<14}" + "".join(f"{m:>28}" for m in metrics)
    lines = [header]
    for label, rows in sorted(groups.items()):
        cells = [f"{label:<14}"]
        for m in metrics:
            vals = np.array([r[m] for r in rows], dtype=float)
            std = vals.std(ddof=1) if len(vals) > 1 else 0.0
            cells.append(f"{vals.mean():>17.4f} ± {std:<8.4f}")
        lines.append("".join(cells))
    return "\n".join(lines)
