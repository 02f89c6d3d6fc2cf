"""The scheduling MDP.

One episode = I time steps; each time step = R RL steps, one per resource
block. An action picks a buffer slot for the current RB (0 = leave it free).
TTLs tick, continuity counters track trailing vacancies, and the reward is
the per-time-step weighted mix of throughput, vacancy continuity and the
latency pressure factor, emitted on the last RB of each time step. An
action naming an empty slot while the buffer holds a request also pays -1
on its own RB, which stays free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from rbshare import channel as ch
from rbshare import traffic as tr

# Divides the continuity counters in the encoded state; it caps nothing.
V_SCALE = 64.0


@dataclass(eq=False)
class BufferEntry:
    """One live request: type, TTL, remaining bits and its per-RB bit budget.

    The TTL starts at the type's `max_latency` on the time step the request
    is admitted and loses one at the end of each, so it is also the clock
    its latency is read from.

    Entries compare by identity, so scans of the buffer for `None` (`count`,
    `in`) stay in C instead of calling a generated `__eq__` per slot.

    `scaled` caches the encoded channel row, `deliverable / (W·T·se_max)`.
    Only `SchedulingEnv.encode` fills it, again whenever `deliverable` is not
    the object `scaled_of` holds. The two are class attributes, not fields,
    so admissions and redraws cost nothing more.
    """

    service: tr.ServiceType
    ttl: int
    remaining_bits: int
    gain: float                     # large-scale power gain, fixed for its lifetime
    deliverable: tuple[int, ...]    # bits per RB, refreshed each coherence period
    scaled = ()
    scaled_of = None


class StepOutcome(NamedTuple):
    """What one RL step did: the only record the accounting reads."""

    reward: float
    terminal: bool
    delivered_bits: int = 0
    alloc_se: float | None = None   # achievable SE of an attempted allocation
    accepted: int = 0               # arrivals admitted at the end of the time step
    dropped: int = 0                # arrivals turned away by a full buffer
    # Left the buffer: (service id, latency, missed, pdu_bits - remaining_bits).
    resolved: tuple | list = ()
    vacant: list[bool] | None = None    # per RB, continuity >= C; last RB of a time step


def aggregate_reward(
    r1: float, r2: float, min_norm_ttl: float,
    alpha: float, beta: float, delta: float, num_rbs: int,
) -> float:
    """End-of-time-step reward: (1/R)(alpha*r1 + beta*r2) * latency factor.

    The factor is 1 - exp(-delta * min_norm_ttl), so `delta = inf` makes it
    exactly 1.0 for any `min_norm_ttl > 0`.
    """
    r3 = 1.0 - math.exp(-delta * min_norm_ttl)
    return (alpha * r1 + beta * r2) * r3 / num_rbs


class SchedulingEnv:
    """Requests' buffer + continuity MDP with per-RB actions.

    Built from a checked `ExperimentConfig` (any object with its fields), of
    which it reads `channel`, `rate` (for its service catalog), `buffer_len`
    (L), `continuity_len` (C), `alpha`, `beta`, `delta` and
    `steps_per_episode`; R is `channel.num_rbs`.

    Randomness is split between a traffic rng and a channel rng. Only the
    traffic is shared across policies under a seed: the channel rng is drawn
    at each admission and each coherence period, for every live request, so
    its draws follow the policy. In one 500-step episode at seed 0, the gains
    `draw_link` returns under `mt` and `ml` first differ at its 6th call, the
    unlicensed link's included (ROADMAP item 6).
    """

    def __init__(self, config, traffic_rng: np.random.Generator,
                 channel_rng: np.random.Generator):
        self.params = params = config.channel
        self.catalog = tr.service_catalog(config.rate)
        self.L, self.R, self.C = config.buffer_len, params.num_rbs, config.continuity_len
        self.alpha, self.beta, self.delta = config.alpha, config.beta, config.delta
        self.steps_per_episode = config.steps_per_episode
        self.traffic_rng = traffic_rng
        self.channel_rng = channel_rng
        self.rb_bits = params.rb_bits
        self.se_max = ch.LTE_CQI_EFFICIENCY[-1]

    # -- episode lifecycle ---------------------------------------------------

    def reset(self):
        self.buffer: list[BufferEntry | None] = [None] * self.L
        self.v = [0] * self.R
        self.mask = [False] * self.R
        self.rl_step = 0
        self.r1 = 0.0
        self.done = False
        arrivals = tr.generate_arrivals(
            self.catalog, self.steps_per_episode, self.traffic_rng
        )
        self._pending = list(reversed(arrivals))  # pop() yields earliest first

    @property
    def psi(self) -> int:
        """Current RB index, 1..R."""
        return self.rl_step % self.R + 1

    # -- state encoding --------------------------------------------------------

    def state_dim(self) -> int:
        return (self.R + 3) * self.L + self.R + 1

    def encode(self) -> np.ndarray:
        """Flatten to the float32 state [q^1 .. q^L, v, psi].

        Each feature's range:
        - a request slot q^j: its service id, 1 to 3 and unscaled; its TTL
          and remaining-bit ratios, in (0, 1]; its channel row, the bits per
          RB over W·T·se_max, in [0, 1];
        - an empty slot: R + 3 zeros;
        - each continuity counter v/64 (`V_SCALE`), in [0, steps_per_episode/64];
        - psi, the current RB over R, in (0, 1].
        """
        out = []
        empty = [0.0] * (self.R + 3)
        for entry in self.buffer:
            if entry is None:
                out += empty
                continue
            if entry.scaled_of is not entry.deliverable:
                se_bits = self.rb_bits * self.se_max
                entry.scaled = [bits / se_bits for bits in entry.deliverable]
                entry.scaled_of = entry.deliverable
            svc = entry.service
            out += (svc.id, entry.ttl / svc.max_latency, entry.remaining_bits / svc.pdu_bits)
            out += entry.scaled
        out += [vk / V_SCALE for vk in self.v]
        out.append((self.rl_step % self.R + 1) / self.R)
        return np.array(out, dtype=np.float32)

    # -- dynamics -------------------------------------------------------------

    def step(self, action: int) -> StepOutcome:
        """Allocate the current RB (action 0 leaves it free, j serves slot j)."""
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        if not 0 <= action <= self.L:
            raise ValueError(f"action out of range: {action}")
        was_empty = self.buffer.count(None) == self.L
        k = self.rl_step % self.R  # 0-based current RB
        delivered, alloc_se, invalid, resolved = 0, None, False, ()
        if not was_empty and action != 0:
            entry = self.buffer[action - 1]
            # Achievable SE of an attempted allocation: the chosen slot's
            # deliverable bits on this RB regardless of how few it still needs
            # ("optimistic"), 0.0 for an empty slot. No sample when the RB is
            # left free or there is nothing to serve; the learning curves
            # average these.
            if entry is None:
                alloc_se, invalid = 0.0, True  # RB stays free, mask unset
            else:
                bits = entry.deliverable[k]
                alloc_se = bits / self.rb_bits
                delivered = min(bits, entry.remaining_bits)
                entry.remaining_bits -= delivered
                self.mask[k] = True
                self.r1 += delivered / self.rb_bits / self.se_max
                if entry.remaining_bits == 0:
                    svc = entry.service
                    resolved = [(svc.id, svc.max_latency - entry.ttl + 1, False,
                                 svc.pdu_bits)]    # none left to send
                    self.buffer[action - 1] = None

        accepted = dropped = 0
        reward, vacant = -1.0 if invalid else 0.0, None
        if k == self.R - 1:
            # Finalize the continuity counters with this step's allocation mask.
            self.v = [0 if m else vk + 1 for m, vk in zip(self.mask, self.v)]
            c = self.C
            vacant = [vk >= c for vk in self.v]
            # Paid only if the buffer held a request as the last RB began.
            if not was_empty:
                # Smallest normalized TTL; 1.0 once this step emptied the buffer.
                # `delta = inf` forces the latency factor to 1, so no scan then.
                min_ttl = 1.0 if self.delta == math.inf else min(
                    (entry.ttl / entry.service.max_latency
                     for entry in self.buffer if entry is not None), default=1.0)
                reward += aggregate_reward(self.r1, sum(vacant), min_ttl,
                                           self.alpha, self.beta, self.delta, self.R)
            resolved, accepted, dropped = self._advance_time_step(resolved)
            self.mask = [False] * self.R
            self.r1 = 0.0

        self.rl_step += 1
        self.done = self.rl_step >= self.steps_per_episode * self.R
        # All eight fields in order, built without the Python frame of the
        # generated `__new__`: 0.18 µs against 0.46 µs, on every RL step.
        return tuple.__new__(StepOutcome, (reward, self.done, delivered, alloc_se,
                                           accepted, dropped, resolved, vacant))

    def _advance_time_step(self, resolved):
        """End-of-step housekeeping: TTLs, misses, admissions, fading redraws.

        Returns `resolved` with the requests that missed their deadline added,
        and the numbers of arrivals accepted and dropped.
        """
        for j, entry in enumerate(self.buffer):
            if entry is None:
                continue
            entry.ttl -= 1
            if entry.ttl == 0:
                # A missed request enters the latency record at its deadline.
                if not resolved:
                    resolved = []
                resolved.append((entry.service.id, entry.service.max_latency, True,
                                 entry.service.pdu_bits - entry.remaining_bits))
                self.buffer[j] = None

        n = self.rl_step // self.R + 1    # the time step that ends here
        accepted = dropped = 0
        while self._pending and self._pending[-1].arrival_step <= n:
            req = self._pending.pop()
            if None not in self.buffer:
                dropped += 1
                continue
            slot = self.buffer.index(None)
            accepted += 1
            svc = req.service
            gain, bits = ch.draw_link(self.params, self.channel_rng)
            self.buffer[slot] = BufferEntry(
                service=svc, ttl=svc.max_latency, remaining_bits=svc.pdu_bits,
                gain=gain, deliverable=bits)

        if n % self.params.coherence_time == 0:
            live = [entry for entry in self.buffer if entry is not None]
            if live:
                redrawn = ch.redraw_small_scale([entry.gain for entry in live], self.params,
                                                self.channel_rng)
                for entry, bits in zip(live, redrawn):
                    entry.deliverable = bits

        return resolved, accepted, dropped
