import math

import numpy as np
import pytest

from rbshare import channel as ch
from rbshare import traffic as tr
from rbshare.environment import BufferEntry, SchedulingEnv
from rbshare.metrics import RunMetrics, UnlicensedLink


def make_env(buffer_len=10, continuity_len=2, alpha=1.0, beta=0.0, delta=math.inf,
             steps=50, rate="high", seed=0, **channel_kw):
    params = ch.ChannelParams(**channel_kw)
    ss = np.random.SeedSequence(seed)
    t_ss, c_ss = ss.spawn(2)
    return SchedulingEnv(
        params, ch.default_cqi_table(), tr.service_catalog(rate),
        buffer_len, continuity_len, alpha, beta, delta, steps,
        np.random.default_rng(t_ss), np.random.default_rng(c_ss),
    )


def env_metrics(env, link_seed=0) -> RunMetrics:
    """`RunMetrics` for `env`, with an unlicensed link drawn from `link_seed`."""
    return RunMetrics(rb_bits=env.rb_bits, num_rbs=env.R, continuity_len=env.C,
                      unlicensed=UnlicensedLink(env.params, env.table,
                                                np.random.default_rng(link_seed)))


def put_entry(env, slot, type_id=1, ttl=None, remaining=None, bits_per_rb=999):
    """Inject a live request into a buffer slot with a fixed per-RB bit budget."""
    svc = next(s for s in env.catalog_list if s.id == type_id)
    link = ch.draw_link(env.params, env.channel_rng)
    entry = BufferEntry(
        service=svc,
        ttl=svc.max_latency if ttl is None else ttl,
        remaining_bits=svc.pdu_bits if remaining is None else remaining,
        link=link,
        deliverable=(bits_per_rb,) * env.R,
        admitted_step=env.time_step,
    )
    env.buffer[slot] = entry
    return entry


@pytest.fixture
def env():
    e = make_env()
    e.reset()
    return e


class Ledger:
    """Accounting of one episode kept apart from the program's own.

    Before each step it adds the bits the current RB can deliver to the
    chosen request (`deliverable_now`). After it, it compares the buffer with
    the one before: a request that left with nothing more to send was
    satisfied, one that left still wanting bits missed its deadline, and a
    request that appeared was admitted.
    """

    def __init__(self):
        self.delivered = self.admitted = 0
        self.satisfied = self.missed = self.missed_bits = 0

    def step(self, env, action: int):
        before = [e for e in env.buffer if e is not None]
        if action:
            self.delivered += env.deliverable_now(action - 1)
        out = env.step(action)
        after = [e for e in env.buffer if e is not None]
        for entry in before:
            if any(entry is e for e in after):
                continue
            if entry.remaining_bits:
                self.missed += 1
                self.missed_bits += entry.delivered_bits
            else:
                self.satisfied += 1
        self.admitted += sum(not any(entry is e for e in before) for entry in after)
        return out


class GridRecorder:
    """Allocation grid and continuity counters of an environment, recorded
    by wrapping its `step`.

    Before each step it marks the current RB allocated when the buffer is not
    empty and the action picks an occupied slot; the row is closed on the
    step that returns `v_final`, whose counters it keeps. So the grid is
    derived from the buffer and the actions alone, not from the env's own
    mask, and a recount from it checks the env's continuity counters.
    """

    def __init__(self, env):
        self.mask_grid: list[np.ndarray] = []
        self.v_history: list[np.ndarray] = []
        row = [False] * env.R
        step = env.step

        def recorded_step(action: int):
            nonlocal row
            buffer = env.buffer
            if action and any(e is not None for e in buffer) and buffer[action - 1] is not None:
                row[env.rl_step % env.R] = True
            out = step(action)
            if out.v_final is not None:
                self.mask_grid.append(np.array(row))
                self.v_history.append(np.array(out.v_final))
                row = [False] * env.R
            return out

        env.step = recorded_step
