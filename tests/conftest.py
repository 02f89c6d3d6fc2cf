import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from rbshare import channel as ch
from rbshare.channel import LTE_CQI_EFFICIENCY, ChannelParams, noise_power
from rbshare.agent import Batch
from rbshare.environment import BufferEntry, SchedulingEnv
from rbshare.harness import ExperimentConfig
from rbshare.metrics import RunMetrics


# -- reference rules -----------------------------------------------------------
# The SINR -> CQI -> bits chain one RB at a time, with a linear CQI scan, and
# the bits an action delivers: what `channel.link_deliverable_bits` (which
# bisects) and the accounting are checked against. Then one fading draw at a
# time and the network's layers out of place, for `channel.draw_link`,
# `channel._fading_draws`, `channel.redraw_small_scale` and `MLP.activations`.
# Then the continuity counters recounted from an allocation grid, for
# `SchedulingEnv.step` and the unlicensed link's share of `RunMetrics`, and
# the greedy baselines rescanned slot by slot, for `mt_action` and `ml_action`.
# Then the learning curve and a latency CDF rebuilt at the end of a run from
# every sample, for the ones `RunMetrics` keeps as the run goes. Last, the
# fingerprint of a run's artifacts, for the goldens.


def sinr(params: ChannelParams, h_k: complex) -> float:
    """Linear SINR with uniform per-RB power split."""
    return (params.tx_power_total / params.num_rbs) * abs(h_k) ** 2 / noise_power(params)


def sinr_to_cqi(sinr_linear: float) -> int:
    """Largest CQI whose efficiency stays below channel capacity.

    CQI 0 when even the lowest rate would exceed log2(1 + SINR).
    """
    capacity = math.log2(1.0 + sinr_linear)
    cqi = 15
    while cqi > 0 and LTE_CQI_EFFICIENCY[cqi] > capacity:
        cqi -= 1
    return cqi


def cqi_to_se(cqi: int) -> float:
    if not 0 <= cqi <= 15:
        raise ValueError(f"CQI out of range: {cqi}")
    return LTE_CQI_EFFICIENCY[cqi]


def deliverable_bits(cqi: int, params: ChannelParams) -> int:
    """Whole bits deliverable on one RB at the given CQI."""
    return int(math.floor(params.rb_bits * cqi_to_se(cqi)))


def deliverable_now(env, slot_index: int) -> int:
    """Bits the current RB can actually deliver to a slot (min with demand)."""
    entry = env.buffer[slot_index]
    if entry is None:
        return 0
    return min(entry.deliverable[env.rl_step % env.R], entry.remaining_bits)


def sample_small_scale(params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """One correlated Rayleigh draw: unit-power complex gain per RB."""
    r = params.num_rbs
    x = rng.standard_normal(2 * r)  # the same stream as two draws of r
    z = (x[:r] + 1j * x[r:]) / math.sqrt(2.0)
    return ch._sqrt_correlation(params.corr_param, r) @ z


def sample_link(params: ChannelParams, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """One link drawn a step at a time: its large-scale gain from
    `sample_large_scale`, then its fading row from `sample_small_scale`."""
    return ch.sample_large_scale(params, rng)[1], sample_small_scale(params, rng)


def reference_link_bits(params: ChannelParams, rng: np.random.Generator) -> list[int]:
    """The per-RB bits of one `sample_link` draw, through the scalar chain."""
    gain, h = sample_link(params, rng)
    return [deliverable_bits(sinr_to_cqi(sinr(params, hk)), params)
            for hk in math.sqrt(gain) * h]


def forward_chain(net, x) -> list[np.ndarray]:
    """The input and every layer's output of `net`, each layer computed out
    of place as `np.maximum(a @ w + b, 0)` (the last without the ReLU): what
    the in-place loop of `MLP.activations` is checked against."""
    acts = [np.asarray(x, dtype=net.dtype)]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        acts.append(z if i == len(net.weights) - 1 else np.maximum(z, 0))
    return acts


def continuity_counters(mask_grid, episode_len=None) -> list[list[int]]:
    """Each time step's continuity counters, recounted from an allocation
    grid of one row of per-RB allocated flags per time step: a counter is 0
    where its RB was allocated and one more than the row before where it was
    left free. The counters start at 0, and again every `episode_len` rows."""
    history = []
    for n, row in enumerate(mask_grid):
        if n == 0 or episode_len and n % episode_len == 0:
            v = [0] * len(row)
        v = [0 if allocated else vk + 1 for allocated, vk in zip(row, v)]
        history.append(v)
    return history


def oracle_mt(env) -> int:
    """The slot that can take the most bits on the current RB; ties go to
    the lowest slot, and an empty buffer gives 0."""
    best, best_bits = 0, None
    for j in range(env.L):
        if env.buffer[j] is None:
            continue
        bits = deliverable_now(env, j)
        if best_bits is None or bits > best_bits:
            best, best_bits = j + 1, bits
    return best


def oracle_ml(env) -> int:
    """The slot with the least TTL over its latency budget; ties go to the
    lowest slot, and an empty buffer gives 0."""
    best, best_val = 0, None
    for j in range(env.L):
        entry = env.buffer[j]
        if entry is None:
            continue
        val = entry.ttl / entry.service.max_latency
        if best_val is None or val < best_val:
            best, best_val = j + 1, val
    return best


def reference_learning_curve(steps, values, time_steps, num_rbs, window):
    """Every 100 time steps, the mean of the attempt SEs `values` whose RL
    steps `steps` lie in the trailing `window` RL steps, 0.0 if none: by
    prefix sums and bisection over the whole run."""
    idx = np.asarray(steps, dtype=np.int64)
    cum = np.concatenate([[0.0], np.cumsum(np.asarray(values, dtype=np.float64))])
    out = []
    for n in range(100, time_steps + 1, 100):
        hi = np.searchsorted(idx, n * num_rbs, side="left")
        lo = np.searchsorted(idx, n * num_rbs - window, side="left")
        out.append((n, float((cum[hi] - cum[lo]) / (hi - lo)) if hi > lo else 0.0))
    return out


def reference_latency_cdf(samples) -> list[tuple[int, float]]:
    """(latency, fraction of `samples` at most it) at each distinct latency,
    from the sorted list of every sample."""
    samples = sorted(samples)
    n = len(samples)
    out = []
    for i, lat in enumerate(samples, start=1):
        if i == n or samples[i] != lat:
            out.append((lat, i / n))
    return out


def fingerprint(out_dir: Path) -> dict:
    """SHA-256 of each artifact that carries a number or the run's settings,
    by file name."""
    prints = {}
    for path in sorted(out_dir.iterdir()):
        if path.name in ("summary.json", "config_echo.txt") or path.suffix == ".csv":
            prints[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.suffix == ".npz":
            h = hashlib.sha256()
            with np.load(path) as data:
                for key in sorted(data.files):
                    arr = data[key]
                    h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
            prints[path.name] = h.hexdigest()
    return prints


CHANNEL_FIELDS = {f.name for f in dataclasses.fields(ChannelParams)}


def make_env(steps=50, seed=0, **kw):
    """An environment built from the default `ExperimentConfig` with
    `steps` time steps per episode; `kw` sets any of its fields or of
    `ChannelParams`'s. `licensed_rbs` is 1, so any R is valid: the
    environment never reads it."""
    channel = ChannelParams(**{k: kw.pop(k) for k in list(kw) if k in CHANNEL_FIELDS})
    config = ExperimentConfig(channel=channel, steps_per_episode=steps, licensed_rbs=1, **kw)
    return seeded_env(config, seed)


def seeded_env(config, seed):
    """`config`'s environment, with traffic and channel generators drawn
    from the two substreams of `seed`."""
    return SchedulingEnv(config, *map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2)))


def env_metrics(env, link_seed=0, window=1000) -> RunMetrics:
    """`RunMetrics` for `env`, with an unlicensed link drawn from `link_seed`
    and a learning curve over the trailing `window` RL steps."""
    return RunMetrics(env.params, np.random.default_rng(link_seed), window)


def put_entry(env, slot, type_id=1, ttl=None, remaining=None, bits_per_rb=999):
    """Inject a live request into a buffer slot with a fixed per-RB bit budget."""
    svc = next(s for s in env.catalog if s.id == type_id)
    gain, _ = ch.draw_link(env.params, env.channel_rng)
    entry = BufferEntry(
        service=svc,
        ttl=svc.max_latency if ttl is None else ttl,
        remaining_bits=svc.pdu_bits if remaining is None else remaining,
        gain=gain,
        deliverable=(bits_per_rb,) * env.R,
    )
    env.buffer[slot] = entry
    return entry


def randomize_buffer(env, rng):
    """Refill the buffer with random live requests in random slots, and move
    to a random RB of the time step."""
    for j in range(env.L):
        env.buffer[j] = None
    for j in rng.choice(env.L, size=rng.integers(0, env.L + 1), replace=False):
        tid = int(rng.integers(1, 4))
        entry = put_entry(env, int(j), type_id=tid,
                          bits_per_rb=int(rng.integers(0, 1000)))
        entry.ttl = int(rng.integers(1, entry.service.max_latency + 1))
        entry.remaining_bits = int(rng.integers(1, entry.service.pdu_bits + 1))
    env.rl_step = int(rng.integers(0, env.R))


@pytest.fixture
def env():
    e = make_env()
    e.reset()
    return e


class Ledger:
    """Accounting of one episode kept apart from the program's own.

    Before each step it adds the bits the current RB can deliver to the
    chosen request (`deliverable_now`), to the total and to that request's
    own tally. After it, it compares the buffer with the one before: a
    request that left with nothing more to send was satisfied, one that left
    still wanting bits missed its deadline, and a request that appeared was
    admitted.

    It also keeps the time step at which each request appeared, read from the
    RL step as `rl_step // R + 1`, and for each one that left a `(service id,
    age, missed, delivered bits)` record in `resolved`, where the age is the
    time step it left at minus the one it appeared at, plus one.
    """

    def __init__(self):
        self.delivered = self.admitted = 0
        self.satisfied = self.missed = self.missed_bits = 0
        self.appeared: dict = {}    # entry -> first time step it spends in the buffer
        self.got: dict = {}         # entry -> bits delivered to it so far
        self.resolved: list[tuple] = []

    def step(self, env, action: int):
        before = [e for e in env.buffer if e is not None]
        now = env.rl_step // env.R + 1
        if action:
            bits = deliverable_now(env, action - 1)
            self.delivered += bits
            if bits:
                entry = env.buffer[action - 1]
                self.got[entry] = self.got.get(entry, 0) + bits
        out = env.step(action)
        after = [e for e in env.buffer if e is not None]
        for entry in before:
            if any(entry is e for e in after):
                continue
            got = self.got.pop(entry, 0)
            if entry.remaining_bits:
                self.missed += 1
                self.missed_bits += got
            else:
                self.satisfied += 1
            if entry in self.appeared:
                age = now - self.appeared.pop(entry) + 1
                self.resolved.append((entry.service.id, age, bool(entry.remaining_bits), got))
        for entry in after:
            if not any(entry is e for e in before):
                self.admitted += 1
                self.appeared[entry] = env.rl_step // env.R + 1
        return out


class GridRecorder:
    """Allocation grid and continuity counters of an environment, recorded
    by wrapping its `step`.

    Before each step it marks the current RB allocated when the buffer is not
    empty and the action picks an occupied slot; the row is closed on the
    step that reports `vacant`, the time step's last, after which it keeps a
    copy of the env's counters `v`. So the grid is derived from the buffer and
    the actions alone, not from the env's own mask, and `continuity_counters`
    of it checks the env's counters.
    """

    def __init__(self, env):
        self.mask_grid: list[list[bool]] = []
        self.v_history: list[list[int]] = []
        row = [False] * env.R
        step = env.step

        def recorded_step(action: int):
            nonlocal row
            buffer = env.buffer
            if action and any(e is not None for e in buffer) and buffer[action - 1] is not None:
                row[env.rl_step % env.R] = True
            out = step(action)
            if out.vacant is not None:
                self.mask_grid.append(row)
                self.v_history.append(list(env.v))
                row = [False] * env.R
            return out

        env.step = recorded_step


class TwoArrayReplay:
    """A replay ring with separate `states` and `next_states` arrays, one row
    per transition, sampled with the same draw as `ReplayMemory`: the oracle
    that `ReplayMemory` is checked against."""

    def __init__(self, capacity: int, state_dim: int):
        self.capacity = capacity
        self.states = np.empty((capacity, state_dim), dtype=np.float32)
        self.next_states = np.empty((capacity, state_dim), dtype=np.float32)
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity, dtype=np.float64)
        self.terminal = np.empty(capacity, dtype=bool)
        self._pushed = 0

    def push(self, state, action: int, reward: float, next_state, terminal: bool):
        i = self._pushed % self.capacity
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.terminal[i] = terminal
        self._pushed += 1

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if batch_size > len(self):
            raise ValueError("not enough transitions to sample a minibatch")
        idx = rng.integers(0, len(self), size=batch_size)
        return Batch(self.states[idx], self.actions[idx], self.rewards[idx],
                     self.next_states[idx], self.terminal[idx])
