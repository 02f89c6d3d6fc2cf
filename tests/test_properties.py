"""Property tests: over random scenarios and policies, the accounting that
`RunMetrics` builds from `SchedulingEnv.step` closes against recounts made
apart from it, every encoded state stays in its stated ranges, and a seed
gives the same artifacts twice; over random outcome streams, the learning
curve and latency CDFs that `RunMetrics` keeps as the run goes equal the ones
rebuilt from every sample at the end; over random chains of transitions, the
replay memory samples what a ring of separate state and next-state arrays
would."""

import copy
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GridRecorder, Ledger, TwoArrayReplay, continuity_counters, env_metrics, \
    fingerprint, reference_latency_cdf, reference_learning_curve, reference_link_bits, seeded_env
from rbshare import harness
from rbshare import traffic as tr
from rbshare.agent import MLP, AgentConfig, DQNPolicy, ReplayMemory, dqn_targets
from rbshare.channel import ChannelParams
from rbshare.environment import StepOutcome
from rbshare.metrics import RunMetrics


@st.composite
def scenarios(draw) -> harness.ExperimentConfig:
    num_rbs = draw(st.integers(1, 8))
    return harness.ExperimentConfig(
        # Down to 1, so short episodes redraw the unlicensed link too.
        channel=ChannelParams(num_rbs=num_rbs, coherence_time=draw(st.integers(1, 13))),
        buffer_len=draw(st.integers(1, 12)),
        continuity_len=draw(st.integers(1, 4)),
        rate=draw(st.sampled_from(tr.RATE_PROFILES)),
        # Short episodes, and ones long enough for deadlines (150 to 300
        # time steps) to pass.
        steps_per_episode=draw(st.one_of(st.integers(1, 10), st.integers(160, 400))),
        episodes=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        policy=draw(st.sampled_from(["mt", "ml", "random", "mt+f", "ml+f"])),
        licensed_rbs=draw(st.integers(1, num_rbs)))


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_accounting_closes(cfg):
    env = seeded_env(cfg, cfg.seed)
    rec = GridRecorder(env)
    traffic_twin = copy.deepcopy(env.traffic_rng)
    link_seed = cfg.seed + 1
    m = env_metrics(env, link_seed)
    twin = np.random.default_rng(link_seed)
    policy = harness.make_policy(cfg, env.state_dim(), None, None,
                                 np.random.default_rng(cfg.seed))
    ledger = Ledger()
    resolved = []
    arrivals = abandoned = 0
    for _ in range(cfg.episodes):
        arrivals += len(tr.generate_arrivals(env.catalog, env.steps_per_episode, traffic_twin))
        env.reset()
        while not env.done:
            out = ledger.step(env, policy.act(env))
            resolved += out.resolved
            m.record(out)
        # Still live: the next `reset`, or the end of the run, drops them.
        abandoned += sum(entry is not None for entry in env.buffer)

    # Every bit the RBs could carry to a chosen request is counted once.
    assert m.delivered_bits == ledger.delivered
    assert m.missed_bits == ledger.missed_bits
    # Every arrival is accepted or dropped; every accepted request is
    # satisfied, missed or abandoned at the end of its episode.
    assert m.summary()["arrivals"] == arrivals
    assert m.accepted == ledger.admitted
    assert (m.satisfied, m.missed) == (ledger.satisfied, ledger.missed)
    assert m.accepted == m.satisfied + m.missed + abandoned
    assert m.summary()["abandoned"] == abandoned
    time_steps = cfg.episodes * cfg.steps_per_episode
    assert m.time_steps == time_steps and m.rl_steps == time_steps * cfg.channel.num_rbs

    # A satisfied request's latency is its age when it left the buffer; a
    # missed one's is its latency budget, which it has reached exactly.
    budget = {svc.id: svc.max_latency for svc in env.catalog}
    assert all(age == budget[sid] for sid, age, missed, _ in ledger.resolved if missed)
    assert sorted(resolved) == sorted(
        (sid, budget[sid] if missed else age, missed, bits)
        for sid, age, missed, bits in ledger.resolved)

    # The unlicensed link's RBs and bits, recounted from the allocation grid
    # with the link redrawn from a twin of its generator every coherence period
    # of the run, and the continuity counters zeroed at each episode's start.
    counters = continuity_counters(rec.mask_grid, cfg.steps_per_episode)
    assert len(counters) == time_steps and rec.v_history == counters
    rb_steps = bits = 0
    for n, v in enumerate(counters):
        if n % cfg.channel.coherence_time == 0:
            link_bits = np.asarray(reference_link_bits(env.params, twin))
        free = np.asarray(v) >= env.C
        rb_steps += int(free.sum())
        bits += int(link_bits[free].sum())
    assert m.unlicensed_rb_steps == rb_steps
    assert m.unlicensed_bits == bits


@st.composite
def small_configs(draw) -> harness.ExperimentConfig:
    """A short run of any policy, with a small DQN that trains from its 32nd
    RL step."""
    num_rbs = draw(st.integers(1, 6))
    return harness.ExperimentConfig(
        policy=draw(st.sampled_from(harness.POLICIES)),
        channel=ChannelParams(num_rbs=num_rbs, coherence_time=draw(st.integers(1, 13))),
        buffer_len=draw(st.integers(1, 8)),
        rate=draw(st.sampled_from(tr.RATE_PROFILES)),
        licensed_rbs=draw(st.integers(1, num_rbs)),
        episodes=draw(st.integers(1, 2)),
        # Short episodes, and ones long enough for a learning-curve row.
        steps_per_episode=draw(st.one_of(st.integers(1, 10), st.integers(100, 160))),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        checkpoint=True,
        agent=AgentConfig(hidden=(16,), min_observations=32, replay_capacity=1000))


@settings(max_examples=100, deadline=None)
@given(small_configs())
def test_encoded_state_in_stated_ranges(cfg):
    """At every RL step, each feature of `encode` is in the range its
    docstring states, under every policy."""
    env = seeded_env(cfg, cfg.seed)
    rngs = [np.random.default_rng(cfg.seed + i) for i in range(3)]
    policy = harness.make_policy(cfg, env.state_dim(), *rngs)
    observe = policy.observe if isinstance(policy, DQNPolicy) else None
    R, width = env.R, env.R + 3
    v_max = np.float32(cfg.steps_per_episode / 64)
    for _ in range(cfg.episodes):
        env.reset()
        while not env.done:
            state = env.encode()
            assert state.shape == (env.state_dim(),) and state.dtype == np.float32
            for j, entry in enumerate(env.buffer):
                q = state[j * width:(j + 1) * width]
                if entry is None:
                    assert not q.any()
                    continue
                assert q[0] in (1, 2, 3) and q[0] == entry.service.id
                assert 0 < q[1] <= 1 and 0 < q[2] <= 1
                assert ((0 <= q[3:]) & (q[3:] <= 1)).all()
            v = state[env.L * width:env.L * width + R]
            assert ((0 <= v) & (v <= v_max)).all()
            assert 0 < state[-1] <= 1
            action = policy.act(env)
            out = env.step(action)
            if observe is not None:
                observe(env, action, out.reward, out.terminal)


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_seed_determines_artifacts(cfg):
    """Two runs of one config write artifacts with equal fingerprints."""
    prints = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("a", "b"):
            harness.run(cfg, out_dir=Path(tmp) / name)
            prints.append(fingerprint(Path(tmp) / name))
    assert "summary.json" in prints[0]
    assert prints[0] == prints[1]


@st.composite
def outcome_streams(draw):
    """R, the learning window (1, 100 R, longer than the run or any other),
    the run's length in time steps, how often an RL step attempts an
    allocation, and which kinds of SE an attempt may have."""
    num_rbs = draw(st.sampled_from([1, 6, 25]))
    time_steps = draw(st.integers(0, 800))
    return {
        "num_rbs": num_rbs,
        "time_steps": time_steps,
        "window": draw(st.one_of(st.sampled_from([1, 100 * num_rbs, time_steps * num_rbs + 1]),
                                 st.integers(1, 8000))),
        "p_attempt": draw(st.floats(0.0, 1.0)),
        "kinds": draw(st.lists(st.sampled_from(["zero", "top", "uniform"]),
                               min_size=1, unique=True)),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
    }


@settings(max_examples=100, deadline=None)
@given(outcome_streams())
def test_learning_curve_matches_end_of_run_oracle(s):
    """The learning curve kept as the run goes is, bit for bit, the one
    rebuilt from every attempt by prefix sums at the end."""
    R, kinds = s["num_rbs"], s["kinds"]
    rng = np.random.default_rng(s["seed"])
    m = RunMetrics(ChannelParams(num_rbs=R), np.random.default_rng(0), s["window"])
    steps, values = [], []
    for k in range(s["time_steps"] * R):
        se = None
        if rng.random() < s["p_attempt"]:
            kind = kinds[int(rng.integers(len(kinds)))]
            se = (0.0 if kind == "zero" else 999 / 180 if kind == "top"
                  else float(rng.uniform(0.0, 5.55)))
            steps.append(k)
            values.append(se)
        m.record(StepOutcome(reward=0.0, terminal=False, alloc_se=se,
                             vacant=[False] * R if k % R == R - 1 else None))
    want = reference_learning_curve(steps, values, s["time_steps"], R, s["window"])
    assert repr(m.learning_curve) == repr(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.integers(1, 5), st.integers(1, 300)), max_size=20),
                min_size=1).filter(any))
def test_latency_cdf_matches_sorted_oracle(batches):
    """The CDF from per-latency counts is the one from the sorted samples."""
    m = RunMetrics(ChannelParams(), np.random.default_rng(0), 1000)
    for batch in batches:
        m.record(StepOutcome(reward=0.0, terminal=False,
                             resolved=[(2, lat, False, 0) for lat in batch]))
    samples = [lat for batch in batches for lat in batch]
    assert repr(m.latency_cdf(2)) == repr(reference_latency_cdf(samples))


@settings(max_examples=200, deadline=None)
@given(capacity=st.sampled_from([1, 2, 3, 7]), state_dim=st.integers(1, 4),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_replay_matches_two_array_oracle(capacity, state_dim, data, seed):
    n = data.draw(st.integers(1, 3 * capacity), label="pushes")
    terminal = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="terminal")
    rng = np.random.default_rng(seed)
    mem, oracle = ReplayMemory(capacity, state_dim), TwoArrayReplay(capacity, state_dim)
    # Transition k carries action k, so a sampled row names its push.
    state = rng.standard_normal(state_dim).astype(np.float32)
    mem.state = state
    for k in range(n):
        next_state = rng.standard_normal(state_dim).astype(np.float32)
        reward = float(rng.standard_normal())
        assert mem.state is state
        mem.push(k, reward, next_state, terminal[k])
        oracle.push(state, k, reward, next_state, terminal[k])
        # A new episode starts from a state of its own.
        if terminal[k]:
            state = mem.state = rng.standard_normal(state_dim).astype(np.float32)
        else:
            state = next_state
    assert len(mem) == len(oracle) == min(n, capacity)

    net = MLP([state_dim, 5, 3], rng=rng, dtype=np.float32)
    for batch_size in range(1, len(mem) + 1):
        got = mem.sample(batch_size, np.random.default_rng(seed + batch_size))
        want = oracle.sample(batch_size, np.random.default_rng(seed + batch_size))
        for name in ("states", "actions", "rewards", "terminal"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        # Only a terminal row's next state, which is never bootstrapped
        # from, may differ; the newest row's is kept even when terminal.
        kept = ~got.terminal | (got.actions == n - 1)
        assert got.next_states.dtype == want.next_states.dtype
        assert np.array_equal(got.next_states[kept], want.next_states[kept])
        targets = dqn_targets(got, net, 0.9)
        assert np.array_equal(targets, dqn_targets(want, net, 0.9))
