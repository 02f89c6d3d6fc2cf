import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Ledger, env_metrics, make_env, put_entry, randomize_buffer
from rbshare import traffic as tr
from rbshare.agent import mt_action, random_policy
from rbshare.environment import V_SCALE, aggregate_reward


def reference_encode(env) -> np.ndarray:
    """[q^1 .. q^L, v, psi] built value by value, as the state is defined."""
    se_bits = env.rb_bits * env.se_max
    out = []
    for entry in env.buffer:
        if entry is None:
            out += [0.0] * (env.R + 3)
        else:
            svc = entry.service
            out += [svc.id, entry.ttl / svc.max_latency, entry.remaining_bits / svc.pdu_bits]
            out += [bits / se_bits for bits in entry.deliverable]
    psi = env.rl_step % env.R + 1
    out += [vk / V_SCALE for vk in env.v] + [psi / env.R]
    return np.array(out, dtype=np.float64).astype(np.float32)


class TestStateEncoding:
    @pytest.mark.parametrize("num_rbs,buffer_len", [(6, 10), (1, 1), (25, 3)])
    def test_encode_matches_reference_bytes(self, num_rbs, buffer_len):
        e = make_env(buffer_len=buffer_len, num_rbs=num_rbs)
        e.reset()
        rng = np.random.default_rng(21)
        for trial in range(60):
            randomize_buffer(e, rng)
            if trial == 0:
                e.buffer[:] = [None] * e.L
            elif trial == 1:
                for j in range(e.L):
                    put_entry(e, j, type_id=1 + j % 3, bits_per_rb=int(rng.integers(0, 1000)))
            e.v[:] = rng.integers(0, 200, size=e.R).tolist()
            for k in range(e.R):
                e.rl_step = trial * e.R + k
                got = e.encode()
                assert got.dtype == np.float32
                assert got.tobytes() == reference_encode(e).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), num_rbs=st.sampled_from([1, 6, 25]),
           buffer_len=st.sampled_from([1, 12]), coherence_time=st.sampled_from([1, 12]),
           policy=st.sampled_from(["mt", "random"]))
    def test_encode_never_stale(self, seed, num_rbs, buffer_len, coherence_time, policy):
        """Live episodes of 25 time steps cross two or more fading redraws;
        the cached channel rows must follow each one."""
        e = make_env(buffer_len=buffer_len, num_rbs=num_rbs, coherence_time=coherence_time,
                     steps=25, seed=seed)
        act = mt_action if policy == "mt" else random_policy(np.random.default_rng(seed)).act
        e.reset()
        while True:
            assert e.encode().tobytes() == reference_encode(e).tobytes()
            if e.done:
                break
            e.step(act(e))

    def test_replaced_deliverable_reencodes(self, env):
        entry = put_entry(env, slot=2, bits_per_rb=999)
        first = env.encode()
        entry.deliverable = tuple(range(100, 100 + env.R))
        second = env.encode()
        assert second.tobytes() == reference_encode(env).tobytes()
        assert second[2 * (env.R + 3) + 3] == 100 / (env.rb_bits * env.se_max)
        assert not np.array_equal(first, second)

    def test_dimension_l10(self, env):
        assert env.state_dim() == 97
        assert env.encode().shape == (97,)

    def test_dimension_l40(self):
        e = make_env(buffer_len=40)
        e.reset()
        assert e.state_dim() == 367

    def test_reset_state(self, env):
        state = env.encode()
        assert state[-1] == 1 / env.R  # psi = 1
        assert not state[:-1].any()

    def test_admitted_request_block(self, env):
        put_entry(env, slot=0, type_id=1, ttl=75, remaining=800)
        state = env.encode()
        assert state[0] == 1                        # service id
        assert state[1] == 75 / 150                 # ttl / latency budget
        assert state[2] == 800 / 3200               # remaining bits / PDU bits
        assert np.all(state[3:9] == 999 / (env.rb_bits * env.se_max))
        assert not state[9:-1].any()

    def test_v_and_psi_layout(self, env):
        env.v[:] = [2, 0, 0, 0, 0, 0]
        env.rl_step = 2  # psi = 3
        state = env.encode()
        assert list(state[90:96]) == [2 / V_SCALE, 0, 0, 0, 0, 0]
        assert state[96] == 3 / env.R

    def test_psi_mutation_changes_one_coordinate(self, env):
        before = env.encode()
        env.rl_step += 1
        after = env.encode()
        assert (before != after).sum() == 1

    def test_normalized_fields_bounded(self, env):
        put_entry(env, slot=3, type_id=2)
        scaled = env.encode()
        assert scaled[3 * 9 + 1] == pytest.approx(1.0)       # ttl / u2
        assert scaled[3 * 9 + 2] == pytest.approx(1.0)       # bits / u1
        assert scaled[-1] == pytest.approx(env.psi / env.R)


class TestActionSemantics:
    def test_noop_leaves_buffer(self, env):
        entry = put_entry(env, 0)
        out = env.step(0)
        assert out.reward == 0.0
        assert not any(env.mask)
        assert entry.remaining_bits == 3200

    def test_delivery_and_satisfaction(self, env):
        put_entry(env, 0, remaining=500)
        out = env.step(1)
        assert out.delivered_bits == 500
        assert env.buffer[0] is None
        # Type 1, admitted this time step (latency 1), not missed, and its
        # whole 3200-bit PDU delivered: 2700 bits before this step, 500 in it.
        assert out.resolved == [(1, 1, False, 3200)]

    def test_action_range_checked_on_empty_buffer(self, env):
        for action in (env.L + 1, -1):
            with pytest.raises(ValueError, match="action out of range"):
                env.step(action)
        for action in (0, env.L):
            out = env.step(action)
            assert (out.reward, out.delivered_bits, out.alloc_se) == (0.0, 0, None)
        assert env.rl_step == 2 and env.buffer.count(None) == env.L

    def test_invalid_action_mid_step(self, env):
        put_entry(env, 0)
        out = env.step(8)  # empty slot -> invalid
        assert out.reward == -1.0
        assert out.alloc_se == 0.0 and out.delivered_bits == 0
        assert not any(env.mask)

    def test_se_values(self, env):
        put_entry(env, 0)
        out = env.step(1)
        assert out.delivered_bits / env.rb_bits == pytest.approx(999 / 180.0)
        assert out.alloc_se == pytest.approx(999 / 180.0)
        put_entry(env, 1, remaining=180)
        out = env.step(2)
        assert out.delivered_bits / env.rb_bits == pytest.approx(1.0)
        assert out.alloc_se == pytest.approx(999 / 180.0)  # achievable, not delivered


class TestContinuity:
    @staticmethod
    def continuity_reward(v_before):
        """The reward of a time step that leaves every RB free, from counters
        `v_before`, with only the continuity term weighted; and the counters
        it ends with."""
        e = make_env(alpha=0.0, beta=1.0, continuity_len=2)
        e.reset()
        put_entry(e, 0, remaining=10**9)  # a live request, so a reward is paid
        e.v[:] = v_before
        rewards = [e.step(0).reward for _ in range(e.R)]
        assert rewards[:-1] == [0.0] * (e.R - 1)
        return rewards[-1], e.v

    def test_indicator(self):
        # Counters 1 (= C - 1) do not count, 2 and more do.
        reward, v = self.continuity_reward([0, 1, 2, 0, 1, 5])
        assert v == [1, 2, 3, 1, 2, 6]
        assert reward == aggregate_reward(0.0, 4, 1.0, 0.0, 1.0, math.inf, 6)

    def test_fig1_snapshot(self):
        reward, v = self.continuity_reward([0, 0, 0, 0, 0, 1])
        assert v == [1, 1, 1, 1, 1, 2]
        # Only RB R qualifies.
        assert reward == aggregate_reward(0.0, 1, 1.0, 0.0, 1.0, math.inf, 6)

    def test_free_rb_increments(self, env):
        env.v[:] = [1, 0, 0, 0, 0, 0]
        for _ in range(env.R):
            env.step(0)
        assert env.v[0] == 2

    def test_v_changes_only_at_boundaries(self, env):
        snapshots = []
        for _ in range(env.R - 1):
            env.step(0)
            snapshots.append(env.v.copy())
        assert all(np.array_equal(s, snapshots[0]) for s in snapshots)


class TestReward:
    def test_aggregate_hand_value(self):
        assert aggregate_reward(4, 2, 0.5, 2, 2, 1, 6) == pytest.approx(
            (1 / 6) * (2 * 4 + 2 * 2) * (1 - math.exp(-0.5)), abs=1e-12
        )

    def test_full_time_step_aggregate(self):
        e = make_env(alpha=2.0, beta=2.0, delta=1.0, continuity_len=2)
        e.reset()
        e.v[:] = [0, 0, 0, 0, 1, 1]  # last two RBs free once more -> qualify
        entry = put_entry(e, 0, type_id=1, ttl=75, remaining=10**6)
        entry.remaining_bits = 10**9  # ample demand, never satisfied mid-step
        rewards = [e.step(1).reward for _ in range(4)]  # allocate RBs 1..4
        rewards.append(e.step(0).reward)                # RB 5 free
        final = e.step(0).reward                        # RB 6 free, aggregate
        assert rewards == [0.0] * 5
        r1 = 4 * (999 / 180.0) / 5.5547
        expected = aggregate_reward(r1, 2, 0.5, 2.0, 2.0, 1.0, 6)
        assert final == pytest.approx(expected, abs=1e-9)

    def test_delta_inf_forces_unit_latency_factor(self):
        # Exactly: 1 - exp(-inf * t) is 1.0 for every t > 0.
        for min_norm_ttl in (5e-324, 1e-9, 1 / 150, 1.0):
            assert aggregate_reward(3, 1, min_norm_ttl, 1, 1, math.inf, 6) == 4 / 6

    def test_invalid_on_final_rb(self):
        e = make_env()
        e.reset()
        put_entry(e, 0)
        for _ in range(e.R - 1):
            e.step(0)
        out = e.step(9)  # invalid on RB R
        agg = aggregate_reward(0.0, sum(v >= e.C for v in e.v),
                               1.0, e.alpha, e.beta, e.delta, e.R)
        assert out.reward == pytest.approx(-1.0 + agg)

    def test_reward_bounded(self):
        rng = np.random.default_rng(12)
        e = make_env(alpha=2.0, beta=2.0, delta=1.0, steps=40)
        e.reset()
        while not e.done:
            r = e.step(int(rng.integers(0, e.L + 1))).reward
            assert -2.0 <= r < e.alpha + e.beta


class TestTimeAdvance:
    def test_ttl_decrement_and_miss(self):
        e = make_env()
        e.reset()
        put_entry(e, 0, type_id=1, ttl=1, remaining=3200 - 999)  # 999 bits delivered earlier
        outs = [e.step(0) for _ in range(e.R)]
        assert e.buffer[0] is None
        # Only the time step's last RB resolves it: type 1, counted at its
        # 150-step deadline, missed, with the 999 bits it had received.
        assert [out.resolved for out in outs] == [()] * (e.R - 1) + [[(1, 150, True, 999)]]

    def test_ttl_bound_and_no_zero_survivors(self):
        rng = np.random.default_rng(13)
        e = make_env(steps=60, seed=5)
        e.reset()
        while not e.done:
            e.step(int(rng.integers(0, e.L + 1)))
            for entry in e.buffer:
                if entry is not None:
                    assert 0 < entry.ttl <= entry.service.max_latency

    def test_buffer_overflow_drops(self):
        e = make_env(buffer_len=2, rate="high", steps=400, seed=3)
        # The episode's traffic, drawn again from a copy of its stream.
        arrivals = tr.generate_arrivals(e.catalog, e.steps_per_episode,
                                        copy.deepcopy(e.traffic_rng))
        e.reset()
        m = env_metrics(e)
        ledger = Ledger()
        while not e.done:
            m.record(ledger.step(e, 0))  # never serve: buffer saturates, arrivals drop
        assert m.dropped > 0
        assert m.accepted == ledger.admitted
        assert m.accepted + m.dropped == len(arrivals)

    def test_coherence_redraw_changes_budget(self):
        e = make_env(steps=30, coherence_time=3, corr_param=0.5,
                     dist_min=400.0, dist_max=900.0)
        e.reset()
        entry = put_entry(e, 0, remaining=10**9)
        entry.deliverable = tuple(range(e.R))  # sentinel
        for _ in range(3 * e.R):
            e.step(0)
        assert entry.deliverable != tuple(range(e.R))

    def test_psi_cycles(self):
        e = make_env(steps=5)
        e.reset()
        seen = []
        while not e.done:
            seen.append(e.psi)
            e.step(0)
        assert seen == [1, 2, 3, 4, 5, 6] * 5


class TestConservation:
    def test_stepping_finished_episode_raises(self):
        e = make_env(steps=2)
        e.reset()
        while not e.done:
            e.step(0)
        with pytest.raises(RuntimeError):
            e.step(0)
