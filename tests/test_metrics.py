import numpy as np
import pytest

from conftest import Ledger, make_env
from rbshare import channel as ch
from rbshare.agent import fixed_split, mt_action
from rbshare.environment import StepOutcome
from rbshare.metrics import RunMetrics


def bare_metrics(window=1000):
    """Default channel (W*T = 180 bits, R = 6), learning curve over the
    trailing `window` RL steps."""
    return RunMetrics(ch.ChannelParams(), np.random.default_rng(0), window)


def blank_outcome(**fields):
    """A mid-time-step RL step that did nothing, with `fields` set."""
    return StepOutcome(reward=0.0, terminal=False, **fields)


def last_rb(n: int) -> list[bool] | None:
    """`vacant` of the n-th RL step under R = 6: no RB vacant, on the last RB."""
    return [False] * 6 if n % 6 == 5 else None


class TestSeLicensed:
    def test_no_time_step_gives_none(self):
        m = bare_metrics()
        m.record(blank_outcome(delivered_bits=999))    # no time step has ended
        summary = m.summary()
        assert [summary[k] for k in ("se_licensed", "se_licensed_adjusted", "se_unlicensed")] \
            == [None] * 3

    def test_idle_is_zero(self):
        m = bare_metrics()
        for k in range(6):
            m.record(blank_outcome(vacant=[False] * 6 if k == 5 else None))
        assert m.summary()["se_licensed"] == 0.0
        assert m.summary()["se_licensed_adjusted"] == 0.0

    def test_adjusted_equals_unadjusted_without_misses(self):
        m = bare_metrics()
        m.record(blank_outcome(delivered_bits=999, vacant=[False] * 6))
        assert m.summary()["se_licensed"] == m.summary()["se_licensed_adjusted"]

    def test_missed_deduction(self):
        m = bare_metrics()
        m.record(blank_outcome(delivered_bits=999, resolved=[(1, 150, True, 999)],
                               vacant=[False] * 6))
        drop = m.summary()["se_licensed"] - m.summary()["se_licensed_adjusted"]
        assert drop == pytest.approx(999 / (180.0 * 6), abs=1e-12)

    def test_adjusted_never_exceeds_unadjusted(self):
        env = make_env(steps=500, seed=2)  # long enough for deadlines to pass
        env.reset()
        m = bare_metrics()
        ledger = Ledger()
        rng = np.random.default_rng(0)
        while not env.done:
            m.record(ledger.step(env, int(rng.integers(0, env.L + 1))))
        assert m.summary()["se_licensed_adjusted"] <= m.summary()["se_licensed"]
        assert m.missed > 0  # the deduction is exercised
        assert m.delivered_bits == ledger.delivered
        assert m.missed_bits == ledger.missed_bits


class TestRatios:
    def test_perfect_run(self):
        m = bare_metrics()
        m.record(blank_outcome(accepted=5))
        assert (m.summary()["acceptance_ratio"], m.summary()["missed_ratio"]) == (1.0, 0.0)

    def test_acceptance_example(self):
        m = bare_metrics()
        m.record(blank_outcome(accepted=88, dropped=12))
        assert m.summary()["acceptance_ratio"] == pytest.approx(0.88)

    def test_missed_example(self):
        m = bare_metrics()
        m.record(blank_outcome(accepted=10_000))
        m.record(blank_outcome(resolved=[(1, 150, True, 0), (1, 150, True, 0)]))
        assert m.summary()["missed_ratio"] == pytest.approx(2e-4)

    def test_bounds(self):
        env = make_env(steps=200, seed=9)
        env.reset()
        m = bare_metrics()
        while not env.done:
            m.record(env.step(0))
        acceptance, missed = m.summary()["acceptance_ratio"], m.summary()["missed_ratio"]
        assert 0.0 <= acceptance <= 1.0 and 0.0 <= missed <= 1.0


class TestLatency:
    def test_degenerate_cdf(self):
        m = bare_metrics()
        m.record(blank_outcome(resolved=[(1, 150, False, 3200)] * 5))
        assert m.latency_cdf(1) == [(150, 1.0)]

    def test_missed_counted_at_deadline(self):
        m = bare_metrics()
        m.record(blank_outcome(resolved=[(3, 300, True, 0), (3, 10, False, 200_000)]))
        cdf = m.latency_cdf(3)
        assert cdf == [(10, 0.5), (300, 1.0)]

    def test_delivered_within_deadline_under_ml(self):
        from rbshare.agent import ml_action
        env = make_env(steps=300, seed=4)
        env.reset()
        m = bare_metrics()
        while not env.done:
            m.record(env.step(ml_action(env)))
        # A missed request's latency is its budget, so every sample is within it.
        assert m.latency
        for svc_id, counts in m.latency.items():
            u2 = {1: 150, 2: 200, 3: 300}[svc_id]
            assert all(1 <= lat <= u2 for lat in counts.keys())

    def test_no_samples_raises(self):
        with pytest.raises(ValueError):
            bare_metrics().latency_cdf(1)


class TestWindowedSe:
    def test_constant_stream(self):
        m = bare_metrics(window=120)
        for n in range(600):
            m.record(blank_outcome(alloc_se=2.5, delivered_bits=450, vacant=last_rb(n)))
        series = m.learning_curve
        assert len(series) == 1
        assert series[0] == (100, pytest.approx(2.5))

    def test_window_one_is_raw(self):
        m = bare_metrics(window=1)
        samples = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0] * 100
        for n, s in enumerate(samples):
            m.record(blank_outcome(alloc_se=s, vacant=last_rb(n)))
        series = m.learning_curve
        assert series[0][1] == samples[100 * 6 - 1]

    def test_skips_free_and_empty_steps(self):
        # Idle RBs and empty-buffer steps leave no sample; the window mean
        # covers only the attempted allocations inside it.
        m = bare_metrics(window=120)
        for n in range(600):
            alloc = 5.0 if n % 2 == 0 else None
            m.record(blank_outcome(alloc_se=alloc, vacant=last_rb(n)))
        series = m.learning_curve
        assert series[0] == (100, pytest.approx(5.0))

    def test_empty_window_is_zero(self):
        m = bare_metrics(window=120)
        for n in range(600):
            m.record(blank_outcome(vacant=last_rb(n)))
        assert m.learning_curve == [(100, 0.0)]

    def test_long_run_state_is_bounded(self):
        # The trail is pruned every 100 time steps, so it never holds more
        # than the window and the attempts of 100 time steps; a latency table
        # has one count per latency, at most the type's budget of them.
        from rbshare import harness, traffic
        cfg = harness.ExperimentConfig(policy="mt", seed=3, episodes=1,
                                       steps_per_episode=20_000, eval_set=False)
        m = harness.run(cfg).train_metrics
        assert len(m.trail) <= m.window + 100 * cfg.channel.num_rbs
        budgets = {svc.id: svc.max_latency for svc in traffic.service_catalog(cfg.rate)}
        assert m.latency
        for svc_id, counts in m.latency.items():
            assert len(counts) <= budgets[svc_id]
        assert len(m.learning_curve) == 200


class TestUnlicensed:
    def test_no_qualifying_vacancies(self):
        m = bare_metrics()
        m.record(blank_outcome(vacant=[False] * 6))
        assert m.summary()["se_unlicensed"] == 0.0
        assert m.unlicensed_rb_steps == 0

    def test_saturated_cqi15(self):
        m = bare_metrics()
        m.unlicensed_bits_per_rb = (999,) * 6
        m.record(blank_outcome(vacant=[True] * 6))
        assert m.summary()["se_unlicensed"] == pytest.approx(999 / 180.0)
        assert m.unlicensed_rb_steps == 6

    def test_fixed_split_warm_up(self):
        env = make_env(steps=30, seed=6)
        env.reset()
        m = bare_metrics()
        policy = fixed_split(mt_action, licensed_rbs=4)
        while not env.done:
            m.record(env.step(policy.act(env)))
        # RBs 5-6 are permanently free: they qualify on every step after C=2.
        assert m.unlicensed_rb_steps >= 2 * (30 - 2)


class TestMergeAndEmission:
    def test_csv_emission(self, tmp_path):
        from rbshare import harness

        cfg = harness.ExperimentConfig(policy="mt", seed=8, episodes=1,
                                       steps_per_episode=200, eval_set=False)
        artifacts = harness.run(cfg, out_dir=tmp_path)
        m = artifacts.train_metrics
        assert (tmp_path / "summary.json").exists()
        lines = (tmp_path / "learning_curve.csv").read_text().splitlines()
        assert lines[0] == "step,value"
        assert lines[1:] == [f"{s},{v!r}" for s, v in m.learning_curve]
        lines = (tmp_path / "latency_type1.csv").read_text().splitlines()
        assert lines[0] == "latency,cdf"
        assert lines[1:] == [f"{lat},{frac!r}" for lat, frac in m.latency_cdf(1)]
