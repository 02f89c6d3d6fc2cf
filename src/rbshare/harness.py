"""Experiment orchestration: configuration parsing, seeding, and the `Run`
that plays the training and evaluation sets episode by episode and records
its artifacts however it ends.

Config files are flat `section.key = value` text. Every stochastic draw
derives from the single master seed through named substreams, so identical
config + seed reproduces a run bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
import signal
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from rbshare import channel as ch
from rbshare import traffic as tr
from rbshare.agent import AgentConfig, DQNPolicy, CallablePolicy, TrainingDiverged, \
    fixed_split, ml_action, mt_action, random_policy
from rbshare.environment import SchedulingEnv
from rbshare.metrics import RunMetrics

POLICIES = ("dqn", "mt", "ml", "random", "mt+f", "ml+f")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
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
    checkpoint: bool = False

    def __post_init__(self):
        """Check each key once, in `_KEYS` order: its type (that of its
        parser), then its rule. A bound that names a key names an earlier
        one, so a bad value is reported under its own key, not under a key
        it bounds. The config is frozen, so it stays as checked.
        """
        values = _values(self)
        for key, (_, _, parser, rule) in _KEYS.items():
            value = values[key]
            if not _typed(parser, value):
                raise ConfigError(f"{key}: wrong type, got {value!r}")
            if _breaks(rule, value, values):
                allowed = rule if isinstance(rule, str) else "{" + ", ".join(map(str, rule)) + "}"
                raise ConfigError(f"{key}: must be in {allowed}, got {value!r}")


_LOW = {"[": operator.ge, "(": operator.gt}
_HIGH = {"]": operator.le, ")": operator.lt}


def _breaks(rule, value, values: dict) -> bool:
    """Whether `value` (each element, for a tuple) breaks `rule`.

    A rule is a tuple of allowed values or an interval such as `"[1, inf)"`
    or `"(channel.dist_min, inf)"`, whose bounds are numbers or keys. The
    comparisons are written so that NaN breaks every interval.
    """
    if not isinstance(rule, str):
        return value not in rule
    low, high = rule[1:-1].split(", ")
    checks = [(_LOW[rule[0]], low), (_HIGH[rule[-1]], high)]
    return any(not holds(v, values[bound] if bound in values else float(bound))
               for v in (value if isinstance(value, tuple) else (value,))
               for holds, bound in checks)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_hidden(text: str) -> tuple:
    return tuple(int(part) for part in text.replace(",", " ").split())


_BOOL = (True, False)


def _typed(parser, value) -> bool:
    """Whether `value` has the type `parser` returns; only a bool key takes a bool."""
    if parser is _parse_hidden:
        return isinstance(value, tuple) and all(_typed(int, v) for v in value)
    kinds = (int, float) if parser is float else bool if parser is _parse_bool else parser
    return isinstance(value, kinds) and isinstance(value, bool) == (parser is _parse_bool)


# The one table of config keys: dotted key -> (target section, attribute,
# parser, rule). Building an `ExperimentConfig` checks every rule, in this
# order; a rule may name only a key above it.
_KEYS = {
    "channel.path_loss_exponent": ("channel", "path_loss_exponent", float, "[0, inf)"),
    "channel.shadowing_sigma": ("channel", "shadowing_sigma", float, "[0, inf)"),
    "channel.corr_param": ("channel", "corr_param", float, "[0, 1]"),
    "channel.coherence_time": ("channel", "coherence_time", int, "[1, inf)"),
    "channel.dist_min": ("channel", "dist_min", float, "(0, inf)"),
    "channel.dist_max": ("channel", "dist_max", float, "(channel.dist_min, inf)"),
    "channel.tx_power": ("channel", "tx_power_total", float, "[0, inf)"),
    "channel.rb_bandwidth": ("channel", "rb_bandwidth", float, "(0, inf)"),
    "channel.num_rbs": ("channel", "num_rbs", int, "[1, inf)"),
    "traffic.rate": ("root", "rate", str, tr.RATE_PROFILES),
    "env.buffer_len": ("root", "buffer_len", int, "[1, inf)"),
    "env.continuity_len": ("root", "continuity_len", int, "[1, inf)"),
    "reward.alpha": ("root", "alpha", float, "[0, inf)"),
    "reward.beta": ("root", "beta", float, "[0, inf)"),
    "reward.delta": ("root", "delta", float, "(0, inf]"),
    "agent.gamma": ("agent", "gamma", float, "(0, 1]"),
    "agent.learning_rate": ("agent", "learning_rate", float, "(0, inf)"),
    "agent.replay_capacity": ("agent", "replay_capacity", int, "[1, inf)"),
    # Replay memory never holds more than its capacity, so a longer warm-up
    # would never end and the network never train.
    "agent.min_observations": ("agent", "min_observations", int,
                               "[1, agent.replay_capacity]"),
    "agent.minibatch": ("agent", "minibatch", int, "[1, agent.min_observations]"),
    "agent.target_sync": ("agent", "target_sync", int, "[1, inf)"),
    "agent.hidden": ("agent", "hidden", _parse_hidden, "[1, inf)"),
    "agent.init_std": ("agent", "init_std", float, "[0, inf)"),
    "agent.eps0": ("agent", "eps0", float, "[0, 1]"),
    "agent.eps_inf": ("agent", "eps_inf", float, "[0, agent.eps0]"),
    "agent.eps_decay_steps": ("agent", "eps_decay_steps", int, "[1, inf)"),
    "run.policy": ("root", "policy", str, POLICIES),
    "run.licensed_rbs": ("root", "licensed_rbs", int, "[1, inf)"),
    "run.episodes": ("root", "episodes", int, "[1, inf)"),
    "run.steps_per_episode": ("root", "steps_per_episode", int, "[1, inf)"),
    "run.seed": ("root", "seed", int, "[0, inf)"),
    "run.eval_set": ("root", "eval_set", _parse_bool, _BOOL),
    "run.checkpoint": ("root", "checkpoint", _parse_bool, _BOOL),
}


def _values(config: ExperimentConfig) -> dict:
    """Every key's current value, in `_KEYS` order."""
    sections = {"channel": config.channel, "agent": config.agent, "root": config}
    return {key: getattr(sections[section], attr)
            for key, (section, attr, _, _) in _KEYS.items()}


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a flat key = value config file; unset keys keep their defaults,
    and a key may be set on one line only.

    `overrides` maps keys to value text that replaces the file's.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc})") from exc
    settings, set_on = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        settings.append((f"{path}:{lineno}: ", key, value))
    settings += [("", key, value) for key, value in (overrides or {}).items()]

    kwargs: dict = {"channel": {}, "agent": {}, "root": {}}
    for where, key, value in settings:
        if key not in _KEYS:
            raise ConfigError(f"{where}unknown key {key!r}")
        section, attr, parser, _ = _KEYS[key]
        try:
            kwargs[section][attr] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{where}{key}: {exc}") from exc

    return ExperimentConfig(channel=ch.ChannelParams(**kwargs["channel"]),
                            agent=AgentConfig(**kwargs["agent"]), **kwargs["root"])


def config_echo(config: ExperimentConfig) -> str:
    """Canonical dump: every known key in fixed order."""
    lines = []
    for key, value in _values(config).items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class Run:
    """One run's state but its environment, which only `run`'s loop holds."""
    config: ExperimentConfig
    policy: object
    train_metrics: RunMetrics
    eval_metrics: RunMetrics    # the set reported: the one running, or the last one played
    out_dir: Path | None
    status: str = "ok"          # "diverged" or "interrupted" if the run stops early
    summary: dict = field(default_factory=dict)


def make_policy(config: ExperimentConfig, state_dim: int,
                init_rng, explore_rng, policy_rng):
    name = config.policy
    if name == "dqn":
        return DQNPolicy(state_dim, config.buffer_len + 1, config.agent,
                         init_rng, explore_rng)
    if name == "random":
        return random_policy(policy_rng)
    action = mt_action if name.startswith("mt") else ml_action
    if name.endswith("+f"):
        return fixed_split(action, config.licensed_rbs)
    return CallablePolicy(action)


def _write_atomic(path: Path, write, mode: str = "w"):
    """Write one artifact whole or not at all: `write(f)` fills a temp file
    in the same directory, which then replaces `path`. So an artifact that
    exists is complete even after a crash, an interrupt or a full disk."""
    tmp = path.with_name(f".{path.stem}.tmp{path.suffix}")
    try:
        with open(tmp, mode) as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, rows):
    lines = [f"{header}\n"] + [f"{a},{b!r}\n" for a, b in rows]
    _write_atomic(path, lambda f: f.writelines(lines))


def _record(run: Run):
    """Summarise `run` from its reported set and its status, and write its
    artifacts; only an "ok" run writes its checkpoint."""
    config, metrics, out_path = run.config, run.eval_metrics, run.out_dir
    # The one setting kept here: perfbench/workload.py reads it to count RL steps.
    run.summary = {**metrics.summary(), "status": run.status, "num_rbs": config.channel.num_rbs}
    if not out_path:
        return
    _write_atomic(out_path / "config_echo.txt", lambda f: f.write(config_echo(config)))
    _write_csv(out_path / "learning_curve.csv", "step,value", run.train_metrics.learning_curve)
    for svc_id in sorted(metrics.latency):
        _write_csv(out_path / f"latency_type{svc_id}.csv", "latency,cdf",
                   metrics.latency_cdf(svc_id))
    _write_atomic(out_path / "summary.json", lambda f: (
        json.dump(run.summary, f, indent=2, sort_keys=True), f.write("\n")))
    checkpoint = config.checkpoint and config.policy == "dqn" and run.status == "ok"
    if checkpoint:
        _write_atomic(out_path / "qnetwork.npz", run.policy.net.save, "wb")
    # An earlier run into this directory may have left files this one did not write.
    kept = {f"latency_type{svc_id}.csv" for svc_id in metrics.latency} | \
        ({"qnetwork.npz"} if checkpoint else set())
    for path in [*out_path.glob("latency_type*.csv"), out_path / "qnetwork.npz"]:
        if path.name not in kept:
            path.unlink(missing_ok=True)


@contextlib.contextmanager
def _deferred_signals():
    """Defer SIGINT and SIGTERM to the caller, which polls the list of signals
    this yields. A second signal puts the previous handlers back and goes to
    them at once. Off the main thread no handler can be set, so none is. A
    signal that is ignored, or whose handler was set outside Python
    (`getsignal` gives None), is left as it is."""
    caught, previous = [], {}
    if threading.current_thread() is threading.main_thread():
        previous = {signum: handler for signum in (signal.SIGINT, signal.SIGTERM)
                    if (handler := signal.getsignal(signum)) not in (None, signal.SIG_IGN)}

    def restore():
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    def defer(signum, frame):
        caught.append(signum)
        if len(caught) > 1:
            restore()
            signal.raise_signal(signum)

    for signum in previous:
        signal.signal(signum, defer)
    try:
        yield caught
    finally:
        restore()


def run(config: ExperimentConfig, out_dir=None) -> Run:
    """Execute a full experiment: training set, then (optionally) the
    evaluation set with exploration pinned at its floor.

    A run that stops early writes the artifacts of the set that was running
    all the same, with no checkpoint. If training diverges, the record has
    `"status": "diverged"` and `TrainingDiverged` is raised again. SIGINT or
    SIGTERM stops the run at the next episode boundary, with
    `"status": "interrupted"`, and raises `KeyboardInterrupt`."""
    out_path = None if out_dir is None else Path(out_dir)
    if out_path:    # made first, so a bad directory fails before the run
        out_path.mkdir(parents=True, exist_ok=True)
    init_rng, explore_rng, traffic_rng, channel_rng, unlic_train_rng, unlic_eval_rng, \
        policy_rng = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(7))
    env = SchedulingEnv(config, traffic_rng, channel_rng)
    policy = make_policy(config, env.state_dim(), init_rng, explore_rng, policy_rng)
    n_sets = 2 if config.eval_set and config.policy == "dqn" else 1
    sets = [RunMetrics(config.channel, rng) for rng in (unlic_train_rng, unlic_eval_rng)[:n_sets]]
    run = Run(config, policy, sets[0], sets[0], out_path)
    rl_steps = env.steps_per_episode * env.R
    with _deferred_signals() as caught:
        try:
            for metrics in sets:
                if metrics is not run.train_metrics:   # exploration pinned at its floor
                    policy.config = replace(policy.config, eps0=policy.config.eps_inf)
                run.eval_metrics = metrics
                # Bound once per set. `env.reset` is looked up at every episode, so
                # a patched class method (the benchmark's first-step hook) applies.
                act, step, record = policy.act, env.step, metrics.record
                observe = policy.observe if isinstance(policy, DQNPolicy) else None
                for _ in range(config.episodes):
                    env.reset()
                    for _ in range(rl_steps):
                        action = act(env)
                        out = step(action)
                        if observe is not None:
                            observe(env, action, out.reward, out.terminal)
                        record(out)
                    if caught:      # the episode boundary
                        run.status = "interrupted"
                        raise KeyboardInterrupt("run interrupted at an episode boundary")
        except TrainingDiverged:
            run.status = "diverged"
            raise
        finally:
            if run.status != "ok":
                _record(run)
    _record(run)
    return run


_COMPARED = ("se_licensed_adjusted", "se_unlicensed", "acceptance_ratio", "missed_ratio")


def _read_run(artifact_dir) -> tuple[ExperimentConfig, dict]:
    """One run's config, loaded from its `config_echo.txt`, and its
    `summary.json`, which must record an "ok" run and each compared metric
    as a number."""
    path = Path(artifact_dir) / "summary.json"
    if not path.exists():
        raise ConfigError(f"no summary.json in {artifact_dir}")
    try:
        summary = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(summary, dict) or not summary.keys() >= {"status", *_COMPARED}:
        raise ConfigError(f"{path}: not a run summary "
                          f"(needs the keys status, {', '.join(_COMPARED)})")
    if summary["status"] != "ok":
        ended = "diverged" if summary["status"] == "diverged" else f"was {summary['status']}"
        raise ConfigError(f"{path}: the run {ended}, so it has no result to compare")
    for key in _COMPARED:   # JSON's true and false are not numbers
        if not isinstance(summary[key], (int, float)) or isinstance(summary[key], bool):
            raise ConfigError(f"{path}: {key}: wrong type, got {summary[key]!r}")
    return load_config(Path(artifact_dir) / "config_echo.txt"), summary


def _differing(configs: list, keys) -> list:
    """Those of `keys` whose value is not the same in all of `configs`."""
    values = [_values(config) for config in configs]
    return [key for key in keys if len({v[key] for v in values}) > 1]


def compare(artifact_dirs: list) -> str:
    """Side-by-side table of the headline metrics across runs.

    Runs must share the scenario (R, L, C, rate), or the keys that differ
    are named; rows group policies, aggregating seeds as mean +/- sample
    std. So the runs of a row differ in `run.seed` and share each key that
    can change a number: all but `run.checkpoint` (it only writes
    `qnetwork.npz`) and the keys the policy never reads (a baseline's
    `agent.*` and `run.eval_set`, and `run.licensed_rbs` without `+f`)."""
    runs = [_read_run(d) for d in artifact_dirs]
    if not runs:
        raise ConfigError("nothing to compare")
    scenario = ("channel.num_rbs", "traffic.rate", "env.buffer_len", "env.continuity_len")
    if mismatched := _differing([config for config, _ in runs], scenario):
        raise ConfigError(f"mismatched scenario across runs: {', '.join(mismatched)}")

    groups: dict = {}
    for config, summary in runs:
        label = config.policy
        if label.endswith("+f"):
            free = max(config.channel.num_rbs - config.licensed_rbs, 0)
            label += f"({config.licensed_rbs}/{free})"
        groups.setdefault(label, []).append((config, summary))

    header = f"{'policy':<14}" + "".join(f"{m:>28}" for m in _COMPARED)
    lines = [header]
    for label, rows in sorted(groups.items()):
        policy = rows[0][0].policy
        differ = [key for key in _differing([config for config, _ in rows], _KEYS)
                  if key not in ("run.seed", "run.checkpoint")
                  and (policy == "dqn" or not key.startswith("agent.") and key != "run.eval_set")
                  and (policy.endswith("+f") or key != "run.licensed_rbs")]
        if differ:
            raise ConfigError(f"{label}: runs in one row differ in {', '.join(differ)}")
        if len({config.seed for config, _ in rows}) < len(rows):
            raise ConfigError(f"{label}: a seed appears twice in one row")
        cells = [f"{label:<14}"]
        for m in _COMPARED:
            vals = np.array([summary[m] for _, summary in rows], dtype=float)
            std = vals.std(ddof=1) if len(vals) > 1 else 0.0
            cells.append(f"{vals.mean():>17.4f} ± {std:<8.4f}")
        lines.append("".join(cells))
    return "\n".join(lines)
