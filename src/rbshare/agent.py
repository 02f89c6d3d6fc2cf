"""Deep-Q agent (numpy MLP + replay memory + target network) and the greedy
baseline policies MT, mL, random, and their fixed-split variants.

The network is trained with plain stochastic gradient descent on the sum of
squared errors over the minibatch, with gradient flowing only through the
taken action's output.
"""

from __future__ import annotations

import copy
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

    def activations(self, x: np.ndarray) -> list[np.ndarray]:
        """The input, then every layer's output (the last layer is linear), for
        a single state or a batch; each layer works in place on its product."""
        a = np.asarray(x, dtype=self.dtype)
        if a.shape[-1] != self.layer_sizes[0]:
            raise ValueError(f"input dim {a.shape[-1]} != network input {self.layer_sizes[0]}")
        acts = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w
            a += b
            if i != last:
                np.maximum(a, 0.0, out=a)
            acts.append(a)
        return acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a single state or a batch."""
        return self.activations(x)[-1]

    def gradients(self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray):
        """Gradients of sum_j (y_j - Q(s_j, a_j))^2 w.r.t. weights and biases."""
        actions = np.asarray(actions, dtype=np.int64)
        targets = np.asarray(targets, dtype=self.dtype)
        acts = self.activations(np.atleast_2d(states))
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
            if (version := int(data["format_version"][0])) != 1:
                raise ValueError(f"{path}: unsupported checkpoint version {version}")
            sizes = [int(s) for s in data["layer_sizes"]]
            net = cls(sizes, rng=None, dtype=data["w0"].dtype.type)
            for i in range(len(sizes) - 1):
                net.weights[i] = data[f"w{i}"]
                net.biases[i] = data[f"b{i}"]
        return net


def sync_target(main: MLP, target: MLP):
    """Copy `main`'s weights and biases into `target`'s arrays, in place."""
    for t, m in zip(target.weights + target.biases, main.weights + main.biases):
        t[...] = m


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

    Each state is stored once, in preallocated arrays that take up memory
    only as rows are written. `state` is the state the next push starts
    from: a push stores it as its row's state, then holds its own next state
    there, or `None` after a terminal one, until the next episode's first
    state is set. So a row's next state is the following row's state, and
    only the newest row's is kept apart. A terminal row's next state is not
    kept: `sample` gives the next episode's first state in its place.
    """

    def __init__(self, capacity: int, state_dim: int):
        self.capacity = capacity
        self.states = np.empty((capacity, state_dim), dtype=np.float32)
        self.last_next_state = np.empty(state_dim, dtype=np.float32)
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity, dtype=np.float64)
        self.terminal = np.empty(capacity, dtype=bool)
        self.pushed = 0         # transitions ever pushed; the DQN's ε step
        self.state: np.ndarray | None = None    # the current state; None at an episode's start

    def push(self, action: int, reward: float, next_state, terminal: bool):
        if self.state is None:      # numpy would store it as a row of NaN
            raise ValueError("push with no current state: set `state` first")
        i = self.pushed % self.capacity    # once full, the oldest row
        self.states[i] = self.state
        self.actions[i] = action
        self.rewards[i] = reward
        self.last_next_state[:] = next_state
        self.terminal[i] = terminal
        self.pushed += 1
        self.state = None if terminal else next_state

    def __len__(self) -> int:
        return min(self.pushed, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        idx = rng.integers(0, len(self), size=batch_size)
        next_states = self.states[(idx + 1) % self.capacity]
        next_states[idx == (self.pushed - 1) % self.capacity] = self.last_next_state
        return Batch(self.states[idx], self.actions[idx], self.rewards[idx],
                     next_states, self.terminal[idx])


# -- schedules / action selection -----------------------------------------------


def epsilon_value(i: int, eps0: float, eps_inf: float, decay_steps: int) -> float:
    """Linear decay from eps0 to eps_inf over `decay_steps` RL steps."""
    if i >= decay_steps:
        return eps_inf
    return max(eps_inf, eps0 - i * (eps0 - eps_inf) / decay_steps)


def select_action(net: MLP, state: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    n_actions = net.layer_sizes[-1]
    if rng.random() < epsilon:
        return int(rng.integers(0, n_actions))
    return int(net.forward(state).argmax())  # argmax ties -> lowest index


def dqn_targets(batch: Batch, target_net: MLP, gamma: float) -> np.ndarray:
    """y_j = r_j (+ gamma * max_a Qhat(s', a) when non-terminal)."""
    boot = target_net.forward(batch.next_states).max(axis=1)
    return batch.rewards + gamma * np.where(batch.terminal, 0.0, boot)


# -- agents / policies ------------------------------------------------------------


@dataclass(frozen=True)
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


class DQNPolicy:
    """ε-greedy DQN with replay memory and a periodically synced target net.

    The policy encodes the environment's state itself, once per RL step: the
    state `observe` pushes as a step's next state is the memory's `state`,
    which the next `act` decides on. A terminal push drops it, so an
    episode's first state is encoded afresh.
    """

    def __init__(self, state_dim: int, n_actions: int, config: AgentConfig,
                 init_rng: np.random.Generator, explore_rng: np.random.Generator):
        sizes = [state_dim, *config.hidden, n_actions]
        self.config = config
        self.net = MLP(sizes, rng=init_rng, init_std=config.init_std, dtype=np.float32)
        self.target = copy.deepcopy(self.net)
        self.memory = ReplayMemory(config.replay_capacity, state_dim)
        self.explore_rng = explore_rng

    @property
    def epsilon(self) -> float:
        c = self.config
        return epsilon_value(self.memory.pushed, c.eps0, c.eps_inf, c.eps_decay_steps)

    def act(self, env: SchedulingEnv) -> int:
        if self.memory.state is None:
            self.memory.state = env.encode()
        return select_action(self.net, self.memory.state, self.epsilon, self.explore_rng)

    def observe(self, env: SchedulingEnv, action: int, reward: float, terminal: bool):
        c = self.config
        self.memory.push(action, reward, env.encode(), terminal)
        if len(self.memory) < c.min_observations:
            return
        batch = self.memory.sample(c.minibatch, self.explore_rng)
        targets = dqn_targets(batch, self.target, c.gamma)
        self.net.train_minibatch(batch.states, batch.actions, targets, c.learning_rate)
        # The pushes from the `min_observations`-th on have each trained once.
        if (self.memory.pushed - c.min_observations + 1) % c.target_sync == 0:
            sync_target(self.net, self.target)


def mt_action(env: SchedulingEnv) -> int:
    """Max-throughput: slot with the most deliverable bits on the current RB
    (as `deliverable_now` in `tests/conftest.py`); the lowest slot wins ties."""
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


def fixed_split(action, licensed_rbs: int) -> CallablePolicy:
    """Reserve RBs above `licensed_rbs` permanently for unlicensed use;
    `action` (`mt_action` or `ml_action`) decides on the others."""

    def act(env: SchedulingEnv) -> int:
        return action(env) if env.psi <= licensed_rbs else 0

    return CallablePolicy(act)
