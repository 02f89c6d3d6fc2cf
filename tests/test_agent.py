import copy
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import forward_chain, make_env, put_entry
from rbshare import agent as ag


class TestMlpForward:
    def test_zero_network(self):
        net = ag.MLP([4, 3, 2])
        assert np.all(net.forward(np.ones(4)) == 0.0)

    def test_hand_computed_toy(self):
        net = ag.MLP([2, 2, 1])
        net.weights[0][:] = [[1.0, -1.0], [0.5, 2.0]]
        net.biases[0][:] = [0.1, -0.2]
        net.weights[1][:] = [[2.0], [3.0]]
        net.biases[1][:] = [0.25]
        x = np.array([1.0, 2.0])
        h = np.maximum(np.array([1.0 + 1.0 + 0.1, -1.0 + 4.0 - 0.2]), 0)
        expected = 2.0 * h[0] + 3.0 * h[1] + 0.25
        assert net.forward(x)[0] == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(0)
        net = ag.MLP([5, 8, 3], rng=rng)
        batch = rng.normal(size=(10, 5))
        out = net.forward(batch)
        for i, x in enumerate(batch):
            assert np.allclose(out[i], net.forward(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(97,), (32, 97)])
    def test_forward_matches_cached_activations(self, dtype, shape):
        # Every activation training keeps, and the forward pass, are byte for
        # byte the out-of-place chain's. One state against one state and a
        # batch against a batch: GEMV and GEMM round differently, so rows of
        # the two are not compared.
        rng = np.random.default_rng(3)
        net = ag.MLP([97, 64, 64, 11], rng=rng, dtype=dtype)
        for b in net.biases:
            b[:] = rng.normal(0.0, 0.05, size=b.shape)
        x = rng.random(shape)
        want = forward_chain(net, x)
        got = net.activations(x)
        assert [a.shape for a in got] == [shape[:-1] + (n,) for n in net.layer_sizes]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
        assert net.forward(x).tobytes() == want[-1].tobytes()

    def test_dimension_mismatch(self):
        net = ag.MLP([4, 2])
        with pytest.raises(ValueError):
            net.forward(np.ones(5))


class TestGradients:
    def test_zero_gradient_at_target(self):
        rng = np.random.default_rng(1)
        net = ag.MLP([3, 4, 2], rng=rng)
        states = rng.normal(size=(4, 3))
        actions = np.array([0, 1, 0, 1])
        targets = net.forward(states)[np.arange(4), actions]
        before = [w.copy() for w in net.weights]
        net.train_minibatch(states, actions, targets, 0.1)
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_linear_single_sample_update(self):
        # one linear unit: q = w.x, loss (y - q)^2, dw = kappa*2*(y-q)*x
        net = ag.MLP([3, 1])
        net.weights[0][:, 0] = [1.0, 2.0, 3.0]
        x = np.array([0.5, -1.0, 2.0])
        y, kappa = 10.0, 0.01
        q = float(net.forward(x)[0])
        net.train_minibatch(x[None, :], np.array([0]), np.array([y]), kappa)
        expected = np.array([1.0, 2.0, 3.0]) + kappa * 2 * (y - q) * x
        assert np.allclose(net.weights[0][:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("sizes", [[3, 4, 2], [10, 32, 32, 5]])
    def test_finite_difference_check(self, sizes):
        rng = np.random.default_rng(2)
        net = ag.MLP(sizes, rng=rng, init_std=0.3)
        states = rng.normal(size=(5, sizes[0]))
        actions = rng.integers(0, sizes[-1], size=5)
        targets = rng.normal(size=5)
        _, grads_w, grads_b = net.gradients(states, actions, targets)

        def loss():
            q = net.forward(states)[np.arange(5), actions]
            return float(np.sum((targets - q) ** 2))

        h = 1e-5
        for layer in range(len(net.weights)):
            for arr, grad in ((net.weights[layer], grads_w[layer]),
                              (net.biases[layer], grads_b[layer])):
                flat = arr.reshape(-1)
                idx = rng.choice(flat.size, size=min(20, flat.size), replace=False)
                for i in idx:
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss()
                    flat[i] = orig - h
                    down = loss()
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    scale = max(abs(fd), abs(grad.reshape(-1)[i]), 1e-8)
                    assert abs(fd - grad.reshape(-1)[i]) / scale < 1e-4

    def test_non_finite_loss_aborts(self):
        net = ag.MLP([2, 1])
        net.weights[0][:] = np.inf
        with pytest.raises(ag.TrainingDiverged):
            net.train_minibatch(np.ones((1, 2)), np.array([0]),
                                np.array([0.0]), 0.1)


def batch_of(*transitions):
    """A minibatch from (state, action, reward, next_state, terminal) tuples."""
    states, actions, rewards, next_states, terminal = zip(*transitions)
    return ag.Batch(np.stack(states), np.array(actions), np.array(rewards),
                    np.stack(next_states), np.array(terminal))


def push_numbered(mem, n, dim=1):
    """Push transitions 0..n-1; transition i carries i in every field but
    its next state, which is i + 1. Odd ones end an episode, so the next
    episode's first state is set by hand, as `DQNPolicy.act` sets it."""
    for i in range(n):
        if mem.state is None:
            mem.state = np.full(dim, i)
        mem.push(i, float(i), np.full(dim, i + 1), i % 2 == 1)


class TestTargetsAndSync:
    def test_terminal_target(self):
        net = ag.MLP([3, 2], rng=np.random.default_rng(3))
        batch = batch_of((np.zeros(3), 0, -1.0, np.ones(3), True))
        assert ag.dqn_targets(batch, net, 0.99)[0] == -1.0

    def test_gamma_zero_is_myopic(self):
        net = ag.MLP([3, 2], rng=np.random.default_rng(4))
        batch = batch_of((np.zeros(3), 1, 0.7, np.ones(3), False))
        assert ag.dqn_targets(batch, net, 0.0)[0] == pytest.approx(0.7)

    def test_two_state_chain_by_hand(self):
        # states A=[1,0], B=[0,1]; linear net so Q(s, a) = w[argnonzero(s), a]
        net = ag.MLP([2, 2])
        net.weights[0][:] = [[1.0, 2.0], [3.0, 0.5]]
        a_state, b_state = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        batch = batch_of((a_state, 0, 1.0, b_state, False),
                         (b_state, 1, 0.0, a_state, False))
        y = ag.dqn_targets(batch, net, 0.9)
        assert y[0] == pytest.approx(1.0 + 0.9 * 3.0)  # max Q(B, .) = 3
        assert y[1] == pytest.approx(0.0 + 0.9 * 2.0)  # max Q(A, .) = 2

    def test_sync_copies_exactly(self):
        rng = np.random.default_rng(5)
        main = ag.MLP([4, 8, 3], rng=rng)
        target = ag.MLP([4, 8, 3], rng=rng)
        arrays = target.weights + target.biases
        ag.sync_target(main, target)
        x = rng.normal(size=(6, 4))
        assert np.array_equal(main.forward(x), target.forward(x))
        # In place: the target keeps its own arrays.
        assert all(a is b for a, b in zip(target.weights + target.biases, arrays))
        assert not any(np.shares_memory(a, b) for a, b in
                       zip(target.weights + target.biases, main.weights + main.biases))

    def test_target_constant_between_syncs(self):
        rng = np.random.default_rng(6)
        main = ag.MLP([4, 8, 3], rng=rng)
        target = copy.deepcopy(main)
        x = rng.normal(size=4)
        before = target.forward(x).copy()
        for _ in range(10):
            main.train_minibatch(rng.normal(size=(2, 4)),
                                 np.array([0, 1]), np.array([1.0, -1.0]), 0.05)
        assert np.array_equal(target.forward(x), before)

    def test_sync_counter_cadence(self):
        env = make_env(steps=5)
        env.reset()
        cfg = ag.AgentConfig(hidden=(8,), min_observations=4, minibatch=2,
                             target_sync=3)
        pol = ag.DQNPolicy(env.state_dim(), env.L + 1, cfg,
                           np.random.default_rng(7), np.random.default_rng(8))
        synced_at = []
        for _ in range(15):
            action = pol.act(env)
            out = env.step(action)
            pol.observe(env, action, out.reward, out.terminal)
            if all(np.array_equal(a, b) for a, b in
                   zip(pol.net.weights, pol.target.weights)):
                synced_at.append(pol.memory.pushed)
        # The nets match through the warm-up, then each push trains and the
        # target syncs on every `target_sync`-th training step.
        warm_up = list(range(1, cfg.min_observations))
        syncs = list(range(cfg.min_observations - 1 + cfg.target_sync, 16, cfg.target_sync))
        assert syncs == [6, 9, 12, 15]
        assert synced_at == warm_up + syncs


class TestEpsilon:
    def test_greedy_argmax_and_ties(self):
        net = ag.MLP([3, 4])
        net.biases[0][:] = [0.0, 3.0, 1.0, 3.0]
        rng = np.random.default_rng(9)
        assert ag.select_action(net, np.zeros(3), 0.0, rng) == 1
        net.biases[0][:] = [0.0, 0.0, 2.0, 2.0]
        assert ag.select_action(net, np.zeros(3), 0.0, rng) == 2  # lowest index

    def test_uniform_exploration(self):
        from scipy.stats import chisquare
        net = ag.MLP([3, 5])
        rng = np.random.default_rng(10)
        counts = np.zeros(5)
        for _ in range(100_000):
            counts[ag.select_action(net, np.zeros(3), 1.0, rng)] += 1
        assert chisquare(counts).pvalue > 0.01

    def test_epsilon_follows_push_count(self):
        """ε is read from the replay's push count, which grows by one per
        observed RL step, across an episode end and a wrapped ring."""
        env = make_env(buffer_len=3, steps=10)  # 60 RL steps per episode
        cfg = ag.AgentConfig(hidden=(8,), minibatch=4, min_observations=16,
                             replay_capacity=50, eps_decay_steps=90)
        pol = ag.DQNPolicy(env.state_dim(), env.L + 1, cfg,
                           np.random.default_rng(0), np.random.default_rng(1))
        steps = 0
        for _ in range(2):
            env.reset()
            while not env.done:
                assert pol.memory.pushed == steps
                assert pol.epsilon == ag.epsilon_value(pol.memory.pushed, cfg.eps0,
                                                       cfg.eps_inf, cfg.eps_decay_steps)
                action = pol.act(env)
                out = env.step(action)
                pol.observe(env, action, out.reward, out.terminal)
                steps += 1
        assert pol.epsilon == cfg.eps_inf and len(pol.memory) == cfg.replay_capacity

    def test_argmax_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(11)
        net = ag.MLP([3, 6], rng=rng)
        x = rng.normal(size=3)
        base = int(np.argmax(net.forward(x)))
        net.weights[-1] *= 7.0
        net.biases[-1] *= 7.0
        assert int(np.argmax(net.forward(x))) == base


class TestReplay:
    # Numpy used to write the missing state as a row of NaN.
    def test_push_without_state_raises(self):
        mem = ag.ReplayMemory(4, 3)
        with pytest.raises(ValueError, match="no current state"):
            mem.push(0, 0.0, np.zeros(3, np.float32), False)
        assert mem.pushed == 0 and len(mem) == 0

    def test_eviction_order(self):
        mem = ag.ReplayMemory(capacity=5, state_dim=1)
        push_numbered(mem, 6)
        assert len(mem) == 5
        # The sixth transition overwrote the oldest one, in row 0.
        assert sorted(mem.actions) == [1, 2, 3, 4, 5]
        assert mem.actions[0] == 5
        mem.state = np.full(1, 6)
        mem.push(6, 6.0, np.full(1, 7), False)
        assert sorted(mem.actions) == [2, 3, 4, 5, 6]
        assert len(mem) == 5

    def test_rows_stay_aligned(self):
        mem = ag.ReplayMemory(capacity=7, state_dim=3)
        push_numbered(mem, 12, dim=3)
        rng = np.random.default_rng(16)
        seen = set()
        for _ in range(20):
            batch = mem.sample(7, rng)
            i = batch.actions
            seen.update(i)
            assert np.array_equal(batch.states, np.repeat(i[:, None], 3, axis=1))
            assert np.array_equal(batch.next_states, batch.states + 1)
            assert np.array_equal(batch.rewards, i.astype(float))
            assert np.array_equal(batch.terminal, i % 2 == 1)
            assert batch.states.dtype == np.float32 and batch.states.flags.c_contiguous
            assert batch.next_states.dtype == np.float32
        # Every row was drawn, so past the wrap: the newest row's next state
        # (12) is the one kept apart, and row 6's (7) is read from row 0.
        assert seen == set(range(5, 12))

    def test_uniform_sampling(self):
        from scipy.stats import chisquare
        mem = ag.ReplayMemory(capacity=20, state_dim=1)
        push_numbered(mem, 20)
        rng = np.random.default_rng(12)
        counts = np.zeros(20)
        for _ in range(2000):
            for action in mem.sample(10, rng).actions:
                counts[action] += 1
        assert chisquare(counts).pvalue > 0.01

    # One float32 state per row plus an int64 action, a float64 reward and a
    # bool flag (17 bytes), and one state kept apart. The benchmark's memory
    # bound would not notice a second state array on a 1 500-row ring.
    @pytest.mark.parametrize("capacity, state_dim", [(1, 1), (1_500, 97), (100_000, 97)])
    def test_footprint(self, capacity, state_dim):
        mem = ag.ReplayMemory(capacity, state_dim)
        nbytes = sum(v.nbytes for v in vars(mem).values() if isinstance(v, np.ndarray))
        assert nbytes <= capacity * (4 * state_dim + 17) + 4 * state_dim


class TestBaselines:
    def test_empty_buffer(self, env):
        assert ag.mt_action(env) == 0
        assert ag.ml_action(env) == 0

    def test_mt_prefers_highest_bits(self, env):
        put_entry(env, 0, bits_per_rb=27)
        put_entry(env, 1, bits_per_rb=999)
        put_entry(env, 2, bits_per_rb=500)
        assert ag.mt_action(env) == 2

    def test_mt_respects_remaining_demand(self, env):
        put_entry(env, 0, bits_per_rb=999, remaining=100)
        put_entry(env, 1, bits_per_rb=500)
        assert ag.mt_action(env) == 2

    def test_ml_picks_least_normalized_ttl(self, env):
        put_entry(env, 0, type_id=1, ttl=135)   # 0.9
        put_entry(env, 1, type_id=2, ttl=20)    # 0.1
        put_entry(env, 2, type_id=3, ttl=150)   # 0.5
        assert ag.ml_action(env) == 2


class TestRandomPolicy:
    @pytest.mark.parametrize("buffer_len", [1, 6, 10, 999])
    def test_matches_scalar_draws(self, buffer_len):
        """Served from blocks, the actions are those of one
        `rng.integers(0, L + 1)` call per step, and after whole blocks the
        generator is where those calls leave it."""
        env = make_env(buffer_len=buffer_len)
        env.reset()
        rng, twin = np.random.default_rng(17), np.random.default_rng(17)
        policy = ag.random_policy(rng)
        got = [policy.act(env) for _ in range(5 * 1024)]
        assert all(type(a) is int for a in got)
        assert got == [int(twin.integers(0, buffer_len + 1)) for _ in range(5 * 1024)]
        assert rng.bit_generator.state == twin.bit_generator.state


class TestFixedSplit:
    def test_reserved_rbs_forced_free(self):
        env = make_env()
        env.reset()
        put_entry(env, 0)
        policy = ag.fixed_split(ag.mt_action, licensed_rbs=4)
        actions = []
        for _ in range(env.R):
            actions.append(policy.act(env))
            env.step(actions[-1])
        assert actions[4] == 0 and actions[5] == 0
        assert actions[0] == 1

    def test_full_split_is_identity(self):
        env = make_env()
        env.reset()
        put_entry(env, 0)
        policy = ag.fixed_split(ag.mt_action, licensed_rbs=env.R)
        assert policy.act(env) == ag.mt_action(env)

    def test_reserved_v_grows(self):
        env = make_env(steps=20)
        env.reset()
        policy = ag.fixed_split(ag.mt_action, licensed_rbs=4)
        while not env.done:
            env.step(policy.act(env))
        assert env.v[4] >= 19 and env.v[5] >= 19


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        net = ag.MLP([6, 10, 4], rng=rng)
        path = tmp_path / "net.npz"
        net.save(path)
        loaded = ag.MLP.load(path)
        x = rng.normal(size=(3, 6))
        assert np.array_equal(net.forward(x), loaded.forward(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_keeps_dtype_and_bits(self, tmp_path, dtype):
        net = ag.MLP([4, 3, 2], rng=np.random.default_rng(17), dtype=dtype)
        net.save(tmp_path / "net.npz")
        loaded = ag.MLP.load(tmp_path / "net.npz")
        assert loaded.dtype == dtype
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert b.dtype == dtype and b.tobytes() == a.tobytes()

    def test_save_streams_arrays_into_open_file(self, tmp_path):
        """The default-size float32 net, saved into an open binary file as
        `harness._write_atomic` passes it, makes no copy of a weight matrix:
        `np.savez` peaked at 1 031 KB here for a 1 024 KB matrix. `write_npz`
        writes exactly the path it is given, where `np.savez` appended `.npz`
        to a path without it; every caller passes a name ending in `.npz`."""
        env = make_env()
        sizes = [env.state_dim(), *ag.AgentConfig().hidden, env.L + 1]
        net = ag.MLP(sizes, rng=np.random.default_rng(18), dtype=np.float32)
        largest = max(w.nbytes for w in net.weights)
        path = tmp_path / "qnetwork.npz"
        with open(path, "wb") as f:
            tracemalloc.start()
            try:
                net.save(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < largest / 8
        arrays = {"format_version": np.array([1]), "layer_sizes": np.array(sizes)}
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays |= {f"w{i}": w, f"b{i}": b}
        with np.load(path, allow_pickle=False) as data:
            assert sorted(data.files) == sorted(arrays)
            for name, want in arrays.items():
                got = data[name]
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    def test_write_npz_writes_the_given_path(self, tmp_path):
        # Any order and shape: a column-major, a zero-dimensional and an empty array.
        arrays = {"f": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
                  "s": np.array(2.5), "e": np.zeros((0, 3), dtype=np.float32)}
        ag.write_npz(tmp_path / "net", arrays)
        assert [p.name for p in tmp_path.iterdir()] == ["net"]
        with np.load(tmp_path / "net", allow_pickle=False) as data:
            for name, want in arrays.items():
                got = data[name]
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert np.array_equal(got, want)

    def test_other_format_version_names_file(self, tmp_path):
        path = tmp_path / "net.npz"
        ag.MLP([4, 3, 2], rng=np.random.default_rng(17)).save(path)
        with np.load(path) as data:
            arrays = {**data, "format_version": np.array([2])}
        np.savez(path, **arrays)
        message = f"{path}: unsupported checkpoint version 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ag.MLP.load(path)


# A default-size DQN trained in a fresh process, BLAS on one thread: minor
# page faults per training step once the warm-up is over. The 2 MB float64
# temporaries of the weight init are freed at once, which raises glibc's
# mmap threshold, so each step's 1 MB gradient buffers come from the heap
# rather than from fresh zeroed pages: under one fault per step. An init
# without such temporaries (the same weights drawn in blocks of 32 rows) made
# it ~630 faults per step, and `dqn-train` ~1.5x slower. glibc and
# `ru_minflt` make this Linux only.
FAULT_PROBE = """
import resource
import sys

import numpy as np

sys.path.insert(0, sys.argv[1])
from conftest import make_env
from rbshare.agent import AgentConfig, DQNPolicy

env = make_env()
env.reset()
config = AgentConfig()
policy = DQNPolicy(env.state_dim(), env.L + 1, config,
                   np.random.default_rng(0), np.random.default_rng(1))


def steps(n):
    for _ in range(n):
        action = policy.act(env)
        out = env.step(action)
        policy.observe(env, action, out.reward, out.terminal)
        if out.terminal:
            env.reset()


steps(config.min_observations + 50)
pushed = policy.memory.pushed   # past the warm-up, every push trains once
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps(300)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / (policy.memory.pushed - pushed))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc, ru_minflt")
def test_training_step_page_faults():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(tests)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert float(proc.stdout) < 50
