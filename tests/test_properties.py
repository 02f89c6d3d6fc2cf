"""Property tests: over random scenarios and policies, the accounting that
`RunMetrics` builds from `SchedulingEnv.step` closes against recounts made
apart from it."""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GridRecorder, Ledger, env_metrics, make_env
from rbshare import traffic as tr
from rbshare.agent import CallablePolicy, fixed_split, ml_action, mt_action, random_policy
from rbshare.metrics import UnlicensedLink


@st.composite
def scenarios(draw):
    num_rbs = draw(st.integers(1, 8))
    return {
        "num_rbs": num_rbs,
        "buffer_len": draw(st.integers(1, 12)),
        "continuity_len": draw(st.integers(1, 4)),
        "rate": draw(st.sampled_from(tr.RATE_PROFILES)),
        # Short episodes, and ones long enough for deadlines (150 to 300
        # time steps) to pass.
        "steps": draw(st.one_of(st.integers(1, 10), st.integers(160, 400))),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "policy": draw(st.sampled_from(["mt", "ml", "random", "mt+f", "ml+f"])),
        "licensed_rbs": draw(st.integers(1, num_rbs)),
    }


def make_policy(name: str, licensed_rbs: int, rng):
    base = {"mt": CallablePolicy(mt_action), "ml": CallablePolicy(ml_action),
            "random": random_policy(rng)}[name.removesuffix("+f")]
    return fixed_split(base, licensed_rbs) if name.endswith("+f") else base


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_accounting_closes(s):
    env = make_env(buffer_len=s["buffer_len"], continuity_len=s["continuity_len"],
                   steps=s["steps"], rate=s["rate"], seed=s["seed"],
                   num_rbs=s["num_rbs"])
    rec = GridRecorder(env)
    arrivals = tr.generate_arrivals(env.catalog_list, env.steps_per_episode,
                                    copy.deepcopy(env.traffic_rng))
    link_seed = s["seed"] + 1
    m = env_metrics(env, link_seed)
    twin = UnlicensedLink(env.params, env.table, np.random.default_rng(link_seed))
    policy = make_policy(s["policy"], s["licensed_rbs"], np.random.default_rng(s["seed"]))
    ledger = Ledger()
    env.reset()
    while not env.done:
        m.record(ledger.step(env, policy.act(env)))
    live = sum(entry is not None for entry in env.buffer)

    # Every bit the RBs could carry to a chosen request is counted once.
    assert m.delivered_bits == ledger.delivered
    assert m.missed_bits == ledger.missed_bits
    # Every arrival is accepted or dropped; every accepted request is
    # satisfied, missed or still in the buffer at the episode's end.
    assert m.arrivals == len(arrivals)
    assert m.accepted == ledger.admitted
    assert (m.satisfied, m.missed) == (ledger.satisfied, ledger.missed)
    assert m.accepted == m.satisfied + m.missed + live
    assert m.time_steps == s["steps"] and m.rl_steps == s["steps"] * s["num_rbs"]

    # The unlicensed link's RBs and bits, recounted from the allocation grid
    # with a twin of the link.
    v = np.zeros(env.R, dtype=np.int64)
    rb_steps = bits = 0
    for mask in rec.mask_grid:
        v = np.where(mask, 0, v + 1)
        free = v >= env.C
        rb_steps += int(free.sum())
        bits += int(np.asarray(twin.bits_per_rb)[free].sum())
        twin.advance_time_step()
    assert len(rec.mask_grid) == s["steps"]
    assert m.unlicensed_rb_steps == rb_steps
    assert m.unlicensed_bits == bits
