"""Evaluation accounting: licensed spectral efficiency (with and without the
missed-bits deduction), the coexisting unlicensed link, acceptance / missed
ratios, latency CDFs and windowed learning curves.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from rbshare import channel as ch
from rbshare.environment import StepOutcome


class UnlicensedLink:
    """Single opportunistic link, repositioned every coherence period.

    Shares the licensed channel parameters, CQI table and per-RB power.
    """

    def __init__(self, params: ch.ChannelParams, table: ch.CqiTable,
                 rng: np.random.Generator):
        self.params = params
        self.table = table
        self.rng = rng
        self._steps = 0
        self._redraw()

    def _redraw(self):
        self.link = ch.draw_link(self.params, self.rng)
        self.bits_per_rb = ch.link_deliverable_bits(self.link, self.params, self.table)

    def advance_time_step(self):
        self._steps += 1
        if self._steps % self.params.coherence_time == 0:
            self._redraw()


@dataclass
class RunMetrics:
    """Per-run accumulators, fed one environment `StepOutcome` at a time."""

    rb_bits: float                     # W*T, bits per unit spectral efficiency
    num_rbs: int
    continuity_len: int
    unlicensed: UnlicensedLink

    rl_steps: int = 0
    # RL step and achievable SE (b/s/Hz) of each attempted allocation.
    alloc_steps: array = field(default_factory=lambda: array("q"))
    alloc_se: array = field(default_factory=lambda: array("d"))
    time_steps: int = 0
    delivered_bits: int = 0
    missed_bits: int = 0               # bits credited to later-missed requests
    accepted: int = 0
    dropped: int = 0
    missed: int = 0
    satisfied: int = 0
    latency: dict = field(default_factory=dict)      # type id -> [(latency, missed)]
    unlicensed_bits: int = 0
    unlicensed_rb_steps: int = 0       # grid cells with continuity >= C

    @property
    def arrivals(self) -> int:
        return self.accepted + self.dropped

    def record(self, out: StepOutcome):
        if out.alloc_se is not None:
            self.alloc_steps.append(self.rl_steps)
            self.alloc_se.append(out.alloc_se)
        self.rl_steps += 1
        self.delivered_bits += out.delivered_bits
        self.accepted += out.accepted
        self.dropped += out.dropped
        for svc_id, latency, was_missed, bits in out.resolved:
            self.latency.setdefault(svc_id, []).append((latency, was_missed))
            if was_missed:
                self.missed += 1
                self.missed_bits += bits
            else:
                self.satisfied += 1
        v = out.v_final
        if v is not None:
            self.time_steps += 1
            for vk, bits in zip(v, self.unlicensed.bits_per_rb):
                if vk >= self.continuity_len:
                    self.unlicensed_rb_steps += 1
                    self.unlicensed_bits += bits
            self.unlicensed.advance_time_step()

    # -- derived quantities ------------------------------------------------------

    def se_licensed(self, adjusted: bool = False) -> float:
        if self.time_steps < 1:
            raise ValueError("no time steps recorded")
        total = self.delivered_bits - (self.missed_bits if adjusted else 0)
        return total / (self.rb_bits * self.num_rbs * self.time_steps)

    def se_unlicensed(self) -> float:
        if self.unlicensed_rb_steps == 0:
            return 0.0
        return self.unlicensed_bits / (self.rb_bits * self.unlicensed_rb_steps)

    def ratios(self) -> tuple[float, float]:
        if self.arrivals == 0:
            raise ValueError("no arrivals recorded")
        acceptance = self.accepted / self.arrivals
        missed = self.missed / self.accepted if self.accepted else 0.0
        return acceptance, missed

    def latency_cdf(self, service_id: int) -> list[tuple[int, float]]:
        samples = sorted(lat for lat, _ in self.latency.get(service_id, []))
        if not samples:
            raise ValueError(f"no latency samples for service type {service_id}")
        n = len(samples)
        out = []
        for i, lat in enumerate(samples, start=1):
            if i == n or samples[i] != lat:
                out.append((lat, i / n))
        return out

    def windowed_se(self, window: int):
        """Trailing-window mean of the RL-step SE samples.

        The learning curve averages the achievable-SE samples of the attempted
        allocations that fall inside the trailing `window` RL steps (idle RBs
        and empty-buffer steps contribute no sample).  Sampled once every 100
        time steps; returns a list of (time_step, mean) pairs, with 0.0 for a
        window holding no allocation attempts.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        idx = np.frombuffer(self.alloc_steps, dtype=np.int64)
        cum = np.concatenate([[0.0], np.cumsum(np.frombuffer(self.alloc_se))])
        out = []
        for n in range(100, self.time_steps + 1, 100):
            hi = np.searchsorted(idx, n * self.num_rbs, side="left")
            lo = np.searchsorted(idx, n * self.num_rbs - window, side="left")
            out.append((n, float((cum[hi] - cum[lo]) / (hi - lo)) if hi > lo else 0.0))
        return out

    def summary(self) -> dict:
        acceptance, missed = self.ratios() if self.arrivals else (1.0, 0.0)
        return {
            "time_steps": self.time_steps,
            "se_licensed": self.se_licensed(),
            "se_licensed_adjusted": self.se_licensed(adjusted=True),
            "se_unlicensed": self.se_unlicensed(),
            "acceptance_ratio": acceptance,
            "missed_ratio": missed,
            "arrivals": self.arrivals,
            "accepted": self.accepted,
            "dropped": self.dropped,
            "missed": self.missed,
            "satisfied": self.satisfied,
            "delivered_bits": self.delivered_bits,
            "missed_bits": self.missed_bits,
            "unlicensed_bits": self.unlicensed_bits,
            "unlicensed_rb_steps": self.unlicensed_rb_steps,
        }
