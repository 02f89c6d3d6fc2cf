"""The scheduling MDP.

One episode = I time steps; each time step = R RL steps, one per resource
block. An action picks a buffer slot for the current RB (0 = leave it free).
TTLs tick, continuity counters track trailing vacancies, and the reward is
the per-time-step weighted mix of throughput, vacancy continuity and the
latency pressure factor, emitted on the last RB of each time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rbshare import channel as ch
from rbshare import traffic as tr

# Normalization cap for the continuity counters in the encoded state.
V_SCALE_CAP = 64.0


@dataclass
class BufferEntry:
    """One live request: type, TTL, remaining bits and its per-RB bit budget."""

    service: tr.ServiceType
    ttl: int
    remaining_bits: int
    link: ch.LinkState
    deliverable: np.ndarray     # int bits per RB, refreshed each coherence period
    admitted_step: int
    delivered_bits: int = 0


@dataclass
class StepOutcome:
    reward: float
    terminal: bool
    info: dict


def aggregate_reward(
    r1: float, r2: float, min_norm_ttl: float,
    alpha: float, beta: float, delta: float, num_rbs: int,
) -> float:
    """End-of-time-step reward: (1/R)(alpha*r1 + beta*r2) * latency factor.

    `delta = inf` disables the latency factor (forces it to 1).
    """
    if math.isinf(delta):
        r3 = 1.0
    else:
        r3 = 1.0 - math.exp(-delta * min_norm_ttl)
    return (alpha * r1 + beta * r2) * r3 / num_rbs


class SchedulingEnv:
    """Requests' buffer + continuity MDP with per-RB actions.

    Randomness is split between a traffic stream rng and a channel rng so that
    policies consuming different amounts of channel randomness stay comparable
    under a shared seed.
    """

    def __init__(
        self,
        params: ch.ChannelParams,
        table: ch.CqiTable,
        catalog: list[tr.ServiceType],
        buffer_len: int,
        continuity_len: int,
        alpha: float,
        beta: float,
        delta: float,
        steps_per_episode: int,
        traffic_rng: np.random.Generator,
        channel_rng: np.random.Generator,
        record_grid: bool = False,
    ):
        if buffer_len < 1 or continuity_len < 1 or steps_per_episode < 1:
            raise ValueError("buffer_len, continuity_len, steps_per_episode must be >= 1")
        self.params = params
        self.table = table
        self.catalog = {svc.id: svc for svc in catalog}
        self.catalog_list = list(catalog)
        self.L = buffer_len
        self.R = params.num_rbs
        self.C = continuity_len
        self.alpha = alpha
        self.beta = beta
        self.delta = delta
        self.steps_per_episode = steps_per_episode
        self.traffic_rng = traffic_rng
        self.channel_rng = channel_rng
        self.record_grid = record_grid
        self.rb_bits = params.rb_bandwidth * params.rb_duration  # bits per unit SE

    # -- episode lifecycle ---------------------------------------------------

    def reset(self):
        self.buffer: list[BufferEntry | None] = [None] * self.L
        self.v = np.zeros(self.R, dtype=np.int64)
        self.mask = np.zeros(self.R, dtype=bool)
        self.rl_step = 0
        self.time_step = 1
        self.r1 = 0.0
        self.r2 = 0.0
        self.done = False
        self.total_delivered_bits = 0
        self.total_missed_bits = 0          # bits credited to later-missed requests
        self.arrivals_count = 0
        self.accepted_count = 0
        self.dropped_count = 0
        self.missed_count = 0
        self.satisfied_count = 0
        arrivals = tr.generate_arrivals(
            self.catalog_list, self.steps_per_episode, self.traffic_rng
        )
        self._pending = list(reversed(arrivals))  # pop() yields earliest first
        self.mask_grid: list[np.ndarray] = []
        self.v_history: list[np.ndarray] = []

    @property
    def psi(self) -> int:
        """Current RB index, 1..R."""
        return self.rl_step % self.R + 1

    @property
    def buffer_empty(self) -> bool:
        return all(slot is None for slot in self.buffer)

    def occupied_slots(self) -> list[int]:
        """0-based indices of live buffer entries (action = index + 1)."""
        return [j for j, slot in enumerate(self.buffer) if slot is not None]

    def deliverable_now(self, slot_index: int) -> int:
        """Bits the current RB can actually deliver to a slot (min with demand)."""
        entry = self.buffer[slot_index]
        if entry is None:
            return 0
        return int(min(entry.deliverable[self.psi - 1], entry.remaining_bits))

    # -- state encoding --------------------------------------------------------

    def state_dim(self) -> int:
        return (self.R + 3) * self.L + self.R + 1

    def encode(self, normalize: bool = True) -> np.ndarray:
        """Flatten to [q^1 .. q^L, v, psi]; empty slots contribute zeros."""
        out = np.zeros(self.state_dim(), dtype=np.float64)
        block = self.R + 3
        se_bits = self.rb_bits * self.table.se_max
        for j, entry in enumerate(self.buffer):
            if entry is None:
                continue
            base = j * block
            if normalize:
                out[base] = entry.service.id
                out[base + 1] = entry.ttl / entry.service.max_latency
                out[base + 2] = entry.remaining_bits / entry.service.pdu_bits
                out[base + 3 : base + 3 + self.R] = entry.deliverable / se_bits
            else:
                out[base] = entry.service.id
                out[base + 1] = entry.ttl
                out[base + 2] = entry.remaining_bits
                out[base + 3 : base + 3 + self.R] = entry.deliverable
        vbase = block * self.L
        if normalize:
            out[vbase : vbase + self.R] = self.v / V_SCALE_CAP
            out[-1] = self.psi / self.R
        else:
            out[vbase : vbase + self.R] = self.v
            out[-1] = self.psi
        return out

    # -- dynamics -------------------------------------------------------------

    def apply_action(self, action: int):
        """Allocate the current RB; returns (delivered_bits, invalid, satisfied_slot)."""
        if not 0 <= action <= self.L:
            raise ValueError(f"action out of range: {action}")
        k = self.psi - 1
        if action == 0:
            return 0, False, None
        entry = self.buffer[action - 1]
        if entry is None:
            return 0, True, None  # invalid: RB stays free, mask unset
        delivered = int(min(entry.deliverable[k], entry.remaining_bits))
        entry.remaining_bits -= delivered
        entry.delivered_bits += delivered
        self.mask[k] = True
        satisfied = None
        if entry.remaining_bits == 0:
            satisfied = action - 1
            self.satisfied_count += 1
            self._latency_sample(entry, missed=False)
            self.buffer[action - 1] = None
        return delivered, False, satisfied

    def continuity_indicator(self, v_k: int) -> int:
        return 1 if v_k >= self.C else 0

    def _min_norm_ttl(self) -> float | None:
        ttls = [
            entry.ttl / entry.service.max_latency
            for entry in self.buffer
            if entry is not None
        ]
        return min(ttls) if ttls else None

    def step(self, action: int) -> StepOutcome:
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        info = {
            "delivered_bits": 0,
            "se_sample": 0.0,
            "alloc_se_sample": None,
            "invalid": False,
            "time_step_finalized": False,
            "missed": [],
            "latency_samples": [],
            "arrivals": 0,
            "accepted": 0,
            "dropped": 0,
        }
        self._info = info
        was_empty = self.buffer_empty
        k = self.psi  # 1..R
        # Achievable SE of an attempted allocation: the chosen slot's deliverable
        # bits on this RB regardless of how few it still needs ("optimistic"),
        # 0.0 for an invalid index.  No sample when the RB is deliberately left
        # free or there is nothing to serve; the learning curves average these.
        if not was_empty and action != 0:
            chosen = self.buffer[action - 1] if 1 <= action <= self.L else None
            info["alloc_se_sample"] = (
                float(chosen.deliverable[k - 1]) / self.rb_bits
                if chosen is not None else 0.0
            )
        delivered, invalid, _ = (0, False, None) if was_empty else self.apply_action(action)

        se_sample = delivered / self.rb_bits
        self.total_delivered_bits += delivered
        if not was_empty and not invalid and self.mask[k - 1]:
            self.r1 += se_sample / self.table.se_max
        info["delivered_bits"] = delivered
        info["se_sample"] = se_sample
        info["invalid"] = invalid

        if k < self.R:
            reward = -1.0 if invalid else 0.0
        else:
            # Finalize the continuity counters with this step's allocation mask.
            self.v = np.where(self.mask, 0, self.v + 1)
            self.r2 += float(sum(self.continuity_indicator(vk) for vk in self.v))
            if was_empty:
                reward = 0.0
            else:
                min_ttl = self._min_norm_ttl()
                reward = aggregate_reward(
                    self.r1, self.r2, 1.0 if min_ttl is None else min_ttl,
                    self.alpha, self.beta, self.delta, self.R,
                )
                if invalid:
                    reward += -1.0
            info["time_step_finalized"] = True
            info["v_final"] = self.v.copy()
            if self.record_grid:
                self.mask_grid.append(self.mask.copy())
                self.v_history.append(self.v.copy())
            self._advance_time_step(info)
            self.mask[:] = False
            self.r1 = 0.0
            self.r2 = 0.0

        self.rl_step += 1
        self.done = self.rl_step >= self.steps_per_episode * self.R
        return StepOutcome(reward, self.done, info)

    def _advance_time_step(self, info: dict):
        """End-of-step housekeeping: TTLs, misses, admissions, fading redraws."""
        for j, entry in enumerate(self.buffer):
            if entry is None:
                continue
            entry.ttl -= 1
            if entry.ttl == 0:
                self.missed_count += 1
                self.total_missed_bits += entry.delivered_bits
                info["missed"].append((entry.service.id, entry.delivered_bits))
                self._latency_sample(entry, missed=True)
                self.buffer[j] = None

        n = self.time_step
        while self._pending and self._pending[-1].arrival_step <= n:
            req = self._pending.pop()
            self.arrivals_count += 1
            info["arrivals"] += 1
            slot = next((j for j, s in enumerate(self.buffer) if s is None), None)
            if slot is None:
                self.dropped_count += 1
                info["dropped"] += 1
                continue
            self.accepted_count += 1
            info["accepted"] += 1
            svc = self.catalog[req.service_id]
            link = ch.draw_link(self.params, self.channel_rng)
            self.buffer[slot] = BufferEntry(
                service=svc,
                ttl=svc.max_latency,
                remaining_bits=svc.pdu_bits,
                link=link,
                deliverable=ch.link_deliverable_bits(link, self.params, self.table),
                admitted_step=n + 1,
            )

        if n % self.params.coherence_time == 0:
            for entry in self.buffer:
                if entry is None:
                    continue
                ch.redraw_small_scale(entry.link, self.params, self.channel_rng)
                entry.deliverable = ch.link_deliverable_bits(
                    entry.link, self.params, self.table
                )
        else:
            for entry in self.buffer:
                if entry is not None:
                    entry.link.age += 1

        self.time_step += 1

    def _latency_sample(self, entry: BufferEntry, missed: bool):
        if missed:
            latency = entry.service.max_latency
        else:
            latency = self.time_step - entry.admitted_step + 1
        self._info["latency_samples"].append((entry.service.id, latency, missed))
