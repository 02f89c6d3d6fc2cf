"""Output checks of the benchmark, each worked out apart from the program.

`artifact_checks` reads what one `harness.run` wrote and holds on every
workload. `Audit` watches the environment during the traced run: it counts
the requests left in the buffer at each reset and at the end of a run, the
allocations that hit a live request, and compares every `mt` and `ml` action
with an oracle written here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


class Checks:
    """Named pass/fail results; a failed one keeps a detail line."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), "" if ok else detail))


def initial_weights(seed: int, sizes: list[int], init_std: float) -> list[np.ndarray]:
    """The Q-network's weights at construction: the first of seven seed
    substreams draws each layer's normal weights in order (biases are zero)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(7)[0])
    return [rng.normal(0.0, init_std, size=(a, b)).astype(np.float32)
            for a, b in zip(sizes, sizes[1:])]


def artifact_checks(checks: Checks, label: str, out_dir: Path, config, se_max: float,
                    budgets: dict, weights: str | None):
    """Checks one run's artifacts. `budgets` maps service type id to its
    latency budget in steps; `weights` is None, "unchanged" or "trained"."""
    s = json.loads((out_dir / "summary.json").read_text())
    p = config.channel
    denom = p.rb_bandwidth * p.rb_duration * p.num_rbs * s["time_steps"]
    se_adj = (s["delivered_bits"] - s["missed_bits"]) / denom
    checks.expect(f"{label}: se_licensed_adjusted recomputed",
                  math.isclose(se_adj, s["se_licensed_adjusted"], rel_tol=1e-12),
                  f"{se_adj!r} != {s['se_licensed_adjusted']!r}")
    checks.expect(f"{label}: arrivals == accepted + dropped",
                  s["arrivals"] == s["accepted"] + s["dropped"],
                  f"{s['arrivals']} != {s['accepted']} + {s['dropped']}")
    checks.expect(f"{label}: time_steps == episodes x steps_per_episode",
                  s["time_steps"] == config.episodes * config.steps_per_episode,
                  f"{s['time_steps']}")
    unresolved = s["accepted"] - s["satisfied"] - s["missed"]
    checks.expect(f"{label}: 0 <= accepted - satisfied - missed <= episodes x L",
                  0 <= unresolved <= config.episodes * config.buffer_len, f"{unresolved}")
    checks.expect(f"{label}: 0 < SE <= se_max",
                  0 < s["se_licensed_adjusted"] <= s["se_licensed"] <= se_max,
                  f"{s['se_licensed_adjusted']!r}, {s['se_licensed']!r}")

    for svc_id, budget in budgets.items():
        path = out_dir / f"latency_type{svc_id}.csv"
        if not path.exists():
            continue
        lines = path.read_text().splitlines()
        rows = [(int(a), float(b)) for a, b in (line.split(",") for line in lines[1:])]
        lats = [lat for lat, _ in rows]
        cdf = [c for _, c in rows]
        checks.expect(f"{label}: latency_type{svc_id}.csv",
                      lines[0] == "latency,cdf" and rows
                      and all(a <= b for a, b in zip(lats, lats[1:]))
                      and all(1 <= lat <= budget for lat in lats)
                      and all(0 < a <= b for a, b in zip(cdf, cdf[1:] + [1.0]))
                      and cdf[-1] == 1.0,
                      f"{rows[:3]} ... {rows[-3:]}")

    if weights is not None:
        with np.load(out_dir / "qnetwork.npz") as data:
            sizes = [int(n) for n in data["layer_sizes"]]
            ws = [data[f"w{i}"] for i in range(len(sizes) - 1)]
        state_dim = (p.num_rbs + 3) * config.buffer_len + p.num_rbs + 1
        checks.expect(f"{label}: network shape",
                      sizes == [state_dim, *config.agent.hidden, config.buffer_len + 1],
                      f"{sizes}")
        init = initial_weights(config.seed, sizes, config.agent.init_std)
        same = [w.dtype == np.float32 and np.array_equal(w, w0) for w, w0 in zip(ws, init)]
        if weights == "unchanged":
            checks.expect(f"{label}: weights unchanged by the run", all(same),
                          f"layers equal to the initial ones: {same}")
        else:
            finite = all(np.isfinite(w).all() for w in ws)
            checks.expect(f"{label}: weights finite and trained", finite and not any(same),
                          f"finite={finite}, layers equal to the initial ones: {same}")


class Audit:
    """Watches `SchedulingEnv.reset` and `.step` during the traced run.

    Installed outside the tracer's wrappers, so its own work counts in the
    self time of `harness.run`, never in a layer's.
    """

    def __init__(self, checks: Checks):
        self.checks = checks
        self.abandoned = 0
        self.attempts = 0
        self.valid = 0
        self.oracle_actions = 0
        self.mismatches = 0
        self.first_mismatch = ""
        self._patched: list[tuple] = []
        self._env = None
        self._run_abandoned = 0
        self._policy = ""
        self._licensed = 0

    def install(self, env_cls):
        reset, step = vars(env_cls)["reset"], vars(env_cls)["step"]
        self._patched = [(env_cls, "reset", reset), (env_cls, "step", step)]

        def audited_reset(env):
            if getattr(env, "buffer", None) is not None:
                self._run_abandoned += sum(e is not None for e in env.buffer)
            self._env = env
            return reset(env)

        def audited_step(env, action):
            self._see_action(env, action)
            return step(env, action)

        env_cls.reset = audited_reset
        env_cls.step = audited_step

    def restore(self):
        for owner, attr, original in self._patched:
            setattr(owner, attr, original)

    def begin_run(self, policy: str, licensed_rbs: int):
        self._policy, self._licensed = policy, licensed_rbs
        self._env, self._run_abandoned = None, 0

    def end_run(self, label: str, summary: dict):
        """Counts what the run left in the buffer and closes its accounting."""
        self._run_abandoned += sum(e is not None for e in self._env.buffer)
        self.abandoned += self._run_abandoned
        s = summary
        self.checks.expect(f"{label}: accepted == satisfied + missed + abandoned",
                           s["accepted"] == s["satisfied"] + s["missed"] + self._run_abandoned,
                           f"{s['accepted']} != {s['satisfied']} + {s['missed']} "
                           f"+ {self._run_abandoned}")

    def _see_action(self, env, action: int):
        live = [(j, e) for j, e in enumerate(env.buffer) if e is not None]
        if live and action != 0:
            self.attempts += 1
            if 1 <= action <= len(env.buffer) and env.buffer[action - 1] is not None:
                self.valid += 1
        expected = self._oracle(env, live)
        if expected is None:
            return
        self.oracle_actions += 1
        if expected != action:
            if not self.mismatches:
                self.first_mismatch = f"{self._policy} RL step {env.rl_step}: {action} != {expected}"
            self.mismatches += 1

    def _oracle(self, env, live) -> int | None:
        """mt: most deliverable bits on the current RB; ml: smallest normalised
        TTL; the lowest slot wins ties; `+f` leaves RBs above the licensed
        share free. None for the policies without an oracle."""
        base = self._policy.removesuffix("+f")
        if base not in ("mt", "ml"):
            return None
        k = env.rl_step % env.R
        if not live or (self._policy.endswith("+f") and k + 1 > self._licensed):
            return 0
        if base == "mt":
            key = [-min(int(e.deliverable[k]), e.remaining_bits) for _, e in live]
        else:
            key = [e.ttl / e.service.max_latency for _, e in live]
        best = min(range(len(live)), key=lambda i: (key[i], i))
        return live[best][0] + 1
