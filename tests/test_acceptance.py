"""Acceptance gate: ten end-to-end criteria, one verdict line per criterion.

Each test prints ``criterion NN: PASS/FAIL`` (visible with ``pytest -s`` and
in the captured output of any failure) and then asserts with pinned
tolerances.  Criterion 9 carries the ``extended`` marker and is excluded
from the default run; invoke it with ``pytest -m extended``.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import GridRecorder, Ledger, continuity_counters, env_metrics, make_env, \
    oracle_ml, oracle_mt, put_entry, randomize_buffer
from rbshare.agent import MLP, AgentConfig, epsilon_value, ml_action, mt_action
from rbshare.environment import aggregate_reward
from rbshare.harness import ExperimentConfig, run


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


def end_of_episode_values(metrics, steps_per_episode: int):
    """Learning-curve values whose trailing window (1 000 RL steps) sits
    entirely inside one episode (the per-episode buffer refill ramp
    contaminates the earlier sample positions)."""
    return [v for step, v in metrics.learning_curve
            if step % steps_per_episode == 0]


def fig3_config(policy: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(policy=policy, rate="high", episodes=30,
                            steps_per_episode=500, alpha=1.0, beta=0.0,
                            delta=math.inf, seed=seed, eval_set=False)


@pytest.mark.slow
def test_criterion_01_learning_curves():
    curves = {}
    for policy in ("mt", "random", "dqn"):
        art = run(fig3_config(policy, seed=0), out_dir=None)
        curves[policy] = end_of_episode_values(art.train_metrics, 500)
    mt_plateau = float(np.mean(curves["mt"][-10:]))
    rand_plateau = float(np.mean(curves["random"][-10:]))
    dqn_final = float(np.mean(curves["dqn"][-3:]))
    ok = (abs(mt_plateau - 5.55) <= 0.05
          and abs(rand_plateau - 4.85) <= 0.25
          and abs(dqn_final - mt_plateau) <= 0.15
          and dqn_final - rand_plateau >= 0.4)
    report(1, ok, f"MT {mt_plateau:.3f} (5.55±0.05), random {rand_plateau:.3f} "
                  f"(4.85±0.25), DQN final {dqn_final:.3f}")
    assert abs(mt_plateau - 5.55) <= 0.05
    assert abs(rand_plateau - 4.85) <= 0.25
    assert abs(dqn_final - mt_plateau) <= 0.15
    assert dqn_final - rand_plateau >= 0.4


def test_criterion_02_epsilon_schedule():
    c = AgentConfig()  # the paper's schedule: 1 -> 0.01 over 80 000 RL steps
    eps = lambda i: epsilon_value(i, c.eps0, c.eps_inf, c.eps_decay_steps)
    closed_form = lambda i: 1.0 - i * (1.0 - 0.01) / 80_000
    checks = (eps(0) == 1.0,
              eps(40_000) == closed_form(40_000),
              abs(eps(40_000) - 0.505) < 1e-12,
              eps(80_000) == 0.01,
              eps(10 ** 7) == 0.01)
    ok = all(checks)
    report(2, ok, f"ε(0)={eps(0)}, ε(40000)={eps(40_000)!r}, ε(80000)={eps(80_000)}")
    assert ok


def test_criterion_03_reward_truth_table():
    env = make_env()
    env.reset()
    empty_reward = env.step(3).reward          # empty buffer
    put_entry(env, 0)
    invalid_reward = env.step(9).reward        # index with no request behind it
    expected = (1 / 6) * (2 * 4 + 2 * 2) * (1 - math.exp(-1 * 0.5))
    agg = aggregate_reward(r1=4, r2=2, min_norm_ttl=0.5,
                           alpha=2.0, beta=2.0, delta=1.0, num_rbs=6)
    ok = (empty_reward == 0.0 and invalid_reward == -1.0
          and abs(agg - expected) < 1e-6)
    report(3, ok, f"empty {empty_reward}, invalid {invalid_reward}, "
                  f"aggregate {agg:.7f} (expected {expected:.7f})")
    assert empty_reward == 0.0
    assert invalid_reward == -1.0
    assert agg == pytest.approx(expected, abs=1e-6)


def test_criterion_04_baseline_oracles():
    env = make_env()
    env.reset()
    rng = np.random.default_rng(4242)
    mismatches = 0
    for _ in range(10_000):
        randomize_buffer(env, rng)
        if mt_action(env) != oracle_mt(env) or ml_action(env) != oracle_ml(env):
            mismatches += 1
    ok = mismatches == 0
    report(4, ok, f"{mismatches} mismatches over 10^4 randomized buffers")
    assert mismatches == 0


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(55)
    worst = 0.0
    h = 1e-5
    for layers in ((3, 4, 2), (10, 32, 32, 5)):
        net = MLP(layers, init_std=0.5, rng=rng, dtype=np.float64)
        states = rng.normal(size=(4, layers[0]))
        actions = rng.integers(0, layers[-1], size=4)
        targets = rng.normal(size=4)
        _, grads_w, grads_b = net.gradients(states, actions, targets)
        loss_only = lambda: net.gradients(states, actions, targets)[0]
        for li in range(len(net.weights)):
            for arr, grad in ((net.weights[li], grads_w[li]),
                              (net.biases[li], grads_b[li])):
                flat, gflat = arr.ravel(), grad.ravel()
                for idx in rng.choice(flat.size, size=min(40, flat.size),
                                      replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    hi = loss_only()
                    flat[idx] = orig - h
                    lo = loss_only()
                    flat[idx] = orig
                    fd = (hi - lo) / (2 * h)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                    worst = max(worst, abs(fd - gflat[idx]) / denom)
    ok = worst < 1e-4
    report(5, ok, f"max relative gradient error {worst:.2e} (< 1e-4)")
    assert worst < 1e-4


def test_criterion_06_continuity_brute_force():
    rng = np.random.default_rng(66)
    bad = 0
    for ep in range(1000):
        env = make_env(steps=20, seed=int(rng.integers(2 ** 31)),
                       continuity_len=int(rng.integers(1, 7)))
        rec = GridRecorder(env)
        env.reset()
        while not env.done:
            env.step(int(rng.integers(0, env.L + 1)))
        recount = continuity_counters(rec.mask_grid)
        bad += sum(got != want for got, want in zip(rec.v_history, recount, strict=True))
    # Fig. 1: with C = 2, one free time step from v = [0, 0, 0, 0, 0, 1]
    # leaves only RB R free for C time steps, and the env reports just it.
    env = make_env(continuity_len=2)
    env.reset()
    assert env.buffer.count(None) == env.L    # nothing to serve, so every RB stays free
    env.v[:] = [0, 0, 0, 0, 0, 1]
    vacant = [env.step(0).vacant for _ in range(env.R)][-1]
    reported = [k for k, free in enumerate(vacant) if free]
    ok = bad == 0 and reported == [env.R - 1]
    report(6, ok, f"{bad} continuity mismatches over 10^3 episodes; RBs reported "
                  f"vacant after one free time step from v=[0,0,0,0,0,1], C=2: {reported}")
    assert bad == 0
    assert env.v == [1, 1, 1, 1, 1, 2]
    assert reported == [env.R - 1]


def test_criterion_07_bit_conservation():
    rng = np.random.default_rng(77)
    violations = 0
    metrics_total = oracle_total = 0
    for ep in range(1000):
        env = make_env(steps=20, seed=int(rng.integers(2 ** 31)))
        env.reset()
        m = env_metrics(env)
        # Tallies what the current RB can carry to each chosen request.
        ledger = Ledger()
        while not env.done:
            m.record(ledger.step(env, int(rng.integers(0, env.L + 1))))
            for entry in env.buffer:
                if entry is not None and (
                        ledger.got.get(entry, 0) + entry.remaining_bits
                        != entry.service.pdu_bits):
                    violations += 1
        metrics_total += m.delivered_bits
        oracle_total += ledger.delivered
    ok = violations == 0 and metrics_total == oracle_total
    report(7, ok, f"{violations} conservation violations; metrics/oracle totals "
                  f"{metrics_total}/{oracle_total}")
    assert violations == 0
    assert metrics_total == oracle_total


@pytest.mark.slow
def test_criterion_08_missed_ratio_ordering():
    seeds = (0, 1, 2)
    missed = {"ml+f": 0, "mt+f": 0}
    accepted = {"ml+f": 0, "mt+f": 0}
    per_seed_ok = True
    for seed in seeds:
        seed_missed = {}
        for policy in ("ml+f", "mt+f"):
            cfg = ExperimentConfig(policy=policy, rate="high", episodes=20,
                                   steps_per_episode=500, continuity_len=2,
                                   licensed_rbs=5, seed=seed, eval_set=False)
            s = run(cfg, out_dir=None).summary
            missed[policy] += s["missed"]
            accepted[policy] += s["accepted"]
            seed_missed[policy] = s["missed_ratio"]
        per_seed_ok &= seed_missed["ml+f"] <= seed_missed["mt+f"]
    ml_ratio = missed["ml+f"] / accepted["ml+f"]
    mt_ratio = missed["mt+f"] / accepted["mt+f"]
    ok = per_seed_ok and ml_ratio < mt_ratio
    report(8, ok, f"pooled missed ratio mL+F {ml_ratio:.2e} < MT+F {mt_ratio:.2e} "
                  f"over seeds {seeds}")
    assert per_seed_ok
    assert ml_ratio < mt_ratio


@pytest.mark.extended
def test_criterion_09_sum_se_ordering():
    seeds = (0, 1, 2)
    sums = {"dqn": [], "mt+f": []}
    for seed in seeds:
        for policy in ("dqn", "mt+f"):
            cfg = ExperimentConfig(policy=policy, rate="low", buffer_len=40,
                                   continuity_len=2, alpha=2.0, beta=2.0,
                                   delta=1.0, episodes=40,
                                   steps_per_episode=500, licensed_rbs=4,
                                   seed=seed)
            s = run(cfg, out_dir=None).summary
            sums[policy].append(s["se_licensed_adjusted"] + s["se_unlicensed"])
    dqn_mean = float(np.mean(sums["dqn"]))
    mtf_mean = float(np.mean(sums["mt+f"]))
    ok = dqn_mean > mtf_mean
    per_seed = "; ".join(f"{p} " + ", ".join(f"{v:.3f}" for v in vals)
                         for p, vals in sums.items())
    report(9, ok, f"mean sum SE dqn {dqn_mean:.3f} vs mt+f {mtf_mean:.3f} "
                  f"over seeds {seeds} (per seed: {per_seed})")
    assert dqn_mean > mtf_mean


def test_criterion_10_determinism():
    outputs = []
    for attempt in range(2):
        cfg = ExperimentConfig(policy="dqn", episodes=2, steps_per_episode=100,
                               seed=11)
        with tempfile.TemporaryDirectory() as d:
            run(cfg, d)
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(Path(d).iterdir())
                            if p.suffix in (".csv", ".json")})
    ok = outputs[0] == outputs[1]
    report(10, ok, f"{len(outputs[0])} artifact files bitwise "
                   f"{'identical' if ok else 'DIFFERENT'}")
    assert outputs[0] == outputs[1]
