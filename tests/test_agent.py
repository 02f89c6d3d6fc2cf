import math

import numpy as np
import pytest

from conftest import make_env, put_entry
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
    """Push transitions 0..n-1; transition i carries i in every field."""
    for i in range(n):
        mem.push(np.full(dim, i), i, float(i), np.full(dim, -i), i % 2 == 1)


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
        ag.sync_target(main, target)
        x = rng.normal(size=(6, 4))
        assert np.array_equal(main.forward(x), target.forward(x))

    def test_target_constant_between_syncs(self):
        rng = np.random.default_rng(6)
        main = ag.MLP([4, 8, 3], rng=rng)
        target = main.clone()
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
        for i in range(1, 16):
            action = pol.act(env)
            out = env.step(action)
            pol.observe(env, action, out.reward, out.terminal)
            if all(np.array_equal(a, b) for a, b in
                   zip(pol.net.weights, pol.target.weights)):
                synced_at.append(pol.train_steps)
        assert pol.train_steps == 15 - cfg.min_observations + 1
        multiples = set(range(cfg.target_sync, pol.train_steps + 1, cfg.target_sync))
        assert multiples and multiples <= set(synced_at)


class TestEpsilon:
    def test_schedule_points(self):
        c = ag.AgentConfig()
        eps = [ag.epsilon_value(i, c.eps0, c.eps_inf, c.eps_decay_steps)
               for i in (0, 40_000, 80_000, 123_456)]
        assert eps[0] == 1.0
        assert eps[1] == pytest.approx(0.505, abs=1e-12)
        assert eps[2:] == [0.01, 0.01]

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

    def test_argmax_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(11)
        net = ag.MLP([3, 6], rng=rng)
        x = rng.normal(size=3)
        base = int(np.argmax(net.forward(x)))
        net.weights[-1] *= 7.0
        net.biases[-1] *= 7.0
        assert int(np.argmax(net.forward(x))) == base


class TestReplay:
    def test_eviction_order(self):
        mem = ag.ReplayMemory(capacity=5, state_dim=1)
        push_numbered(mem, 6)
        assert len(mem) == 5
        # The sixth transition overwrote the oldest one, in row 0.
        assert sorted(mem.actions) == [1, 2, 3, 4, 5]
        assert mem.actions[0] == 5
        mem.push(np.full(1, 6), 6, 6.0, np.full(1, -6), False)
        assert sorted(mem.actions) == [2, 3, 4, 5, 6]
        assert len(mem) == 5

    def test_rows_stay_aligned(self):
        mem = ag.ReplayMemory(capacity=7, state_dim=3)
        push_numbered(mem, 12, dim=3)
        batch = mem.sample(7, np.random.default_rng(16))
        i = batch.actions
        assert set(i) <= set(range(5, 12))
        assert np.array_equal(batch.states, np.repeat(i[:, None], 3, axis=1))
        assert np.array_equal(batch.next_states, -batch.states)
        assert np.array_equal(batch.rewards, i.astype(float))
        assert np.array_equal(batch.terminal, i % 2 == 1)
        assert batch.states.dtype == np.float32 and batch.states.flags.c_contiguous

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

    def test_minibatch_needs_enough(self):
        mem = ag.ReplayMemory(capacity=10, state_dim=1)
        push_numbered(mem, 1)
        with pytest.raises(ValueError):
            mem.sample(2, np.random.default_rng(13))


def oracle_mt(env):
    best, best_bits = 0, None
    for j in range(env.L):
        entry = env.buffer[j]
        if entry is None:
            continue
        bits = min(int(entry.deliverable[env.psi - 1]), entry.remaining_bits)
        if best_bits is None or bits > best_bits:
            best, best_bits = j + 1, bits
    return best


def oracle_ml(env):
    best, best_val = 0, None
    for j in range(env.L):
        entry = env.buffer[j]
        if entry is None:
            continue
        val = entry.ttl / entry.service.max_latency
        if best_val is None or val < best_val:
            best, best_val = j + 1, val
    return best


def randomize_buffer(env, rng):
    for j in range(env.L):
        env.buffer[j] = None
    for j in rng.choice(env.L, size=rng.integers(0, env.L + 1), replace=False):
        tid = int(rng.integers(1, 4))
        entry = put_entry(env, int(j), type_id=tid,
                          bits_per_rb=int(rng.integers(0, 1000)))
        entry.ttl = int(rng.integers(1, entry.service.max_latency + 1))
        entry.remaining_bits = int(rng.integers(1, entry.service.pdu_bits + 1))
    env.rl_step = int(rng.integers(0, env.R))


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

    def test_oracle_equivalence(self):
        env = make_env()
        env.reset()
        rng = np.random.default_rng(14)
        for _ in range(2000):
            randomize_buffer(env, rng)
            assert ag.mt_action(env) == oracle_mt(env)
            assert ag.ml_action(env) == oracle_ml(env)


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
        policy = ag.fixed_split(ag.CallablePolicy(ag.mt_action), licensed_rbs=4)
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
        policy = ag.fixed_split(ag.CallablePolicy(ag.mt_action), licensed_rbs=env.R)
        assert policy.act(env) == ag.mt_action(env)

    def test_reserved_v_grows(self):
        env = make_env(steps=20)
        env.reset()
        policy = ag.fixed_split(ag.CallablePolicy(ag.mt_action), licensed_rbs=4)
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
