"""Deep-Q agent (numpy MLP + replay memory + target network) and the greedy
baseline policies MT, mL, random, and their fixed-split variants.

The network is trained with plain stochastic gradient descent on the sum of
squared errors over the minibatch, with gradient flowing only through the
taken action's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from rbshare.environment import SchedulingEnv


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


# -- value network -------------------------------------------------------------


class MLP:
    """Fully connected rectifier network, identity output layer."""

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator | None = None,
                 init_std: float = 0.05, dtype=np.float64):
        self.layer_sizes = list(layer_sizes)
        self.dtype = dtype
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out), dtype=dtype)
            else:
                w = rng.normal(0.0, init_std, size=(fan_in, fan_out)).astype(dtype)
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a single state or a batch (last layer is linear)."""
        a = np.asarray(x, dtype=self.dtype)
        if a.shape[-1] != self.layer_sizes[0]:
            raise ValueError(
                f"input dim {a.shape[-1]} != network input {self.layer_sizes[0]}"
            )
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if i != last:
                np.maximum(a, 0.0, out=a)
        return a

    def _forward_cached(self, x: np.ndarray):
        activations = [np.asarray(x, dtype=self.dtype)]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w + b
            if i != last:
                np.maximum(z, 0.0, out=z)
            activations.append(z)
        return activations

    def gradients(self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray):
        """Gradients of sum_j (y_j - Q(s_j, a_j))^2 w.r.t. weights and biases."""
        states = np.atleast_2d(np.asarray(states, dtype=self.dtype))
        actions = np.asarray(actions, dtype=np.int64)
        targets = np.asarray(targets, dtype=self.dtype)
        acts = self._forward_cached(states)
        q = acts[-1][np.arange(len(actions)), actions]
        grads_w = [np.empty(0)] * len(self.weights)
        grads_b = [np.empty(0)] * len(self.biases)
        # A diverging net overflows here; train_minibatch turns the
        # non-finite loss into TrainingDiverged, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            loss = float(np.sum((targets - q) ** 2))

            # dL/d(output) is nonzero only at the taken actions.
            delta = np.zeros_like(acts[-1])
            delta[np.arange(len(actions)), actions] = -2.0 * (targets - q)

            for i in range(len(self.weights) - 1, -1, -1):
                grads_w[i] = acts[i].T @ delta
                grads_b[i] = delta.sum(axis=0)
                if i > 0:
                    # (W @ delta.T).T is delta @ W.T by a faster GEMM, with
                    # the same bits on OpenBLAS. It is F-ordered; writing it
                    # into a C-ordered array keeps the order in which the
                    # bias gradient's column sum adds.
                    delta = np.multiply((self.weights[i] @ delta.T).T, acts[i] > 0,
                                        out=np.empty_like(acts[i]))
        return loss, grads_w, grads_b

    def train_minibatch(self, states, actions, targets, learning_rate: float) -> float:
        """One SGD step; returns the (pre-update) loss."""
        loss, grads_w, grads_b = self.gradients(states, actions, targets)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite training loss: {loss}")
        for w, b, gw, gb in zip(self.weights, self.biases, grads_w, grads_b):
            gw *= learning_rate
            w -= gw
            gb *= learning_rate
            b -= gb
        return loss

    def copy_from(self, other: "MLP"):
        if self.layer_sizes != other.layer_sizes:
            raise ValueError("network shapes differ")
        for w, ow in zip(self.weights, other.weights):
            w[...] = ow
        for b, ob in zip(self.biases, other.biases):
            b[...] = ob

    def clone(self) -> "MLP":
        net = MLP(self.layer_sizes, rng=None, dtype=self.dtype)
        net.copy_from(self)
        return net

    def save(self, path):
        """Checkpoint format v1: npz with layer sizes + row-major arrays."""
        arrays = {"format_version": np.array([1]),
                  "layer_sizes": np.array(self.layer_sizes)}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "MLP":
        """Rebuilds the net in the dtype of its stored arrays."""
        with np.load(path) as data:
            if int(data["format_version"][0]) != 1:
                raise ValueError("unsupported checkpoint version")
            sizes = [int(s) for s in data["layer_sizes"]]
            net = cls(sizes, rng=None, dtype=data["w0"].dtype.type)
            for i in range(len(sizes) - 1):
                net.weights[i] = data[f"w{i}"]
                net.biases[i] = data[f"b{i}"]
        return net


def sync_target(main: MLP, target: MLP):
    target.copy_from(main)


# -- replay memory ---------------------------------------------------------------


class Batch(NamedTuple):
    """A minibatch of transitions, one row per transition."""
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminal: np.ndarray


class ReplayMemory:
    """Fixed-capacity ring buffer with uniform minibatch sampling.

    Transitions live in preallocated arrays, one row each. The arrays are
    allocated empty, so only the rows written ever take up memory.
    """

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.states = np.empty((capacity, state_dim), dtype=np.float32)
        self.next_states = np.empty((capacity, state_dim), dtype=np.float32)
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity, dtype=np.float64)
        self.terminal = np.empty(capacity, dtype=bool)
        self._pushed = 0

    def push(self, state, action: int, reward: float, next_state, terminal: bool):
        i = self._pushed % self.capacity    # once full, the oldest row
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


# -- schedules / action selection -----------------------------------------------


def epsilon_value(i: int, eps0: float, eps_inf: float, decay_steps: int) -> float:
    """Linear decay from eps0 to eps_inf over `decay_steps` RL steps."""
    if i >= decay_steps:
        return eps_inf
    return max(eps_inf, eps0 - i * (eps0 - eps_inf) / decay_steps)


def select_action(net: MLP, state: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    n_actions = net.layer_sizes[-1]
    if rng.random() < epsilon:
        return int(rng.integers(0, n_actions))
    return int(np.argmax(net.forward(state)))  # argmax ties -> lowest index


def dqn_targets(batch: Batch, target_net: MLP, gamma: float) -> np.ndarray:
    """y_j = r_j (+ gamma * max_a Qhat(s', a) when non-terminal)."""
    boot = target_net.forward(batch.next_states).max(axis=1)
    return batch.rewards + gamma * np.where(batch.terminal, 0.0, boot)


# -- agents / policies ------------------------------------------------------------


@dataclass
class AgentConfig:
    gamma: float = 0.9
    learning_rate: float = 1e-4
    minibatch: int = 32
    target_sync: int = 100          # RL steps between target-network copies
    min_observations: int = 1_000
    replay_capacity: int = 100_000
    hidden: tuple = (512, 512, 512)
    init_std: float = 0.05
    eps0: float = 1.0
    eps_inf: float = 0.01
    eps_decay_steps: int = 80_000

    def __post_init__(self):
        checks = (
            ("gamma", 0.0 < self.gamma <= 1.0, "must be in (0, 1]"),
            ("learning_rate", self.learning_rate > 0, "must be positive"),
            ("replay_capacity", self.replay_capacity >= 1, "must be >= 1"),
            ("target_sync", self.target_sync >= 1, "must be >= 1"),
            ("minibatch", 1 <= self.minibatch <= self.min_observations,
             "must be in 1..agent.min_observations"),
            # Replay memory never holds more than its capacity, so a larger
            # warm-up would never end and the network never train.
            ("min_observations", self.min_observations <= self.replay_capacity,
             "must be <= agent.replay_capacity"),
            ("eps0", 0.0 <= self.eps0 <= 1.0, "must be in [0, 1]"),
            ("eps_inf", 0.0 <= self.eps_inf <= 1.0, "must be in [0, 1]"),
            ("eps_decay_steps", self.eps_decay_steps >= 1, "must be >= 1"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"agent.{name}: {rule}, got {getattr(self, name)!r}")


class DQNPolicy:
    """ε-greedy DQN with replay memory and a periodically synced target net.

    The policy encodes the environment's state itself, once per RL step: the
    state `observe` encodes after a step is the one the next `act` decides on.
    A terminal step drops it, so an episode's first state is encoded afresh.
    """

    def __init__(self, state_dim: int, n_actions: int, config: AgentConfig,
                 init_rng: np.random.Generator, explore_rng: np.random.Generator):
        sizes = [state_dim, *config.hidden, n_actions]
        self.config = config
        self.net = MLP(sizes, rng=init_rng, init_std=config.init_std, dtype=np.float32)
        self.target = self.net.clone()
        self.memory = ReplayMemory(config.replay_capacity, state_dim)
        self.state: np.ndarray | None = None     # encoded current state
        self.explore_rng = explore_rng
        self.global_step = 0            # drives the ε schedule
        self.train_steps = 0
        self.frozen = False             # eval-time learning freeze
        self.eps_override: float | None = None

    @property
    def epsilon(self) -> float:
        if self.eps_override is not None:
            return self.eps_override
        c = self.config
        return epsilon_value(self.global_step, c.eps0, c.eps_inf, c.eps_decay_steps)

    def act(self, env: SchedulingEnv) -> int:
        if self.state is None:
            self.state = env.encode().astype(self.net.dtype)
        return select_action(self.net, self.state, self.epsilon, self.explore_rng)

    def observe(self, env: SchedulingEnv, action: int, reward: float, terminal: bool):
        next_state = env.encode().astype(self.net.dtype)
        self.memory.push(self.state, action, reward, next_state, terminal)
        self.state = None if terminal else next_state
        self.global_step += 1
        if self.frozen or len(self.memory) < self.config.min_observations:
            return
        batch = self.memory.sample(self.config.minibatch, self.explore_rng)
        targets = dqn_targets(batch, self.target, self.config.gamma)
        self.net.train_minibatch(batch.states, batch.actions, targets,
                                 self.config.learning_rate)
        self.train_steps += 1
        if self.train_steps % self.config.target_sync == 0:
            sync_target(self.net, self.target)


def mt_action(env: SchedulingEnv) -> int:
    """Max-throughput: slot with the most deliverable bits on the current RB
    (as `env.deliverable_now`); the lowest slot wins ties."""
    k = env.rl_step % env.R
    best, best_bits = 0, -1
    for j, entry in enumerate(env.buffer, 1):
        if entry is not None:
            bits = min(entry.deliverable[k], entry.remaining_bits)
            if bits > best_bits:
                best, best_bits = j, bits
    return best


def ml_action(env: SchedulingEnv) -> int:
    """Min-latency: slot with the smallest normalized TTL; the lowest slot
    wins ties."""
    best, best_ttl = 0, math.inf
    for j, entry in enumerate(env.buffer, 1):
        if entry is not None:
            norm = entry.ttl / entry.service.max_latency
            if norm < best_ttl:
                best, best_ttl = j, norm
    return best


class CallablePolicy:
    """Adapter giving function policies the act/observe interface."""

    def __init__(self, fn):
        self._fn = fn

    def act(self, env: SchedulingEnv) -> int:
        return self._fn(env)

    def observe(self, *args):
        pass


def random_policy(rng: np.random.Generator) -> CallablePolicy:
    """Uniform over 0..L, for one environment, drawn 1024 actions at a time:
    the bit generator keeps the spare half of each 64-bit draw, so a block
    gives the same actions as one draw per step."""
    block: list[int] = []   # reversed, so pop() serves them in order

    def act(env: SchedulingEnv) -> int:
        if not block:
            block.extend(reversed(rng.integers(0, env.L + 1, size=1024).tolist()))
        return block.pop()

    return CallablePolicy(act)


def fixed_split(policy, licensed_rbs: int) -> CallablePolicy:
    """Reserve RBs above `licensed_rbs` permanently for unlicensed use.
    `policy` is a baseline that keeps no state, so it observes nothing."""

    def act(env: SchedulingEnv) -> int:
        if not 1 <= licensed_rbs <= env.R:
            raise ValueError("licensed_rbs must be in 1..R")
        return policy.act(env) if env.psi <= licensed_rbs else 0

    return CallablePolicy(act)
