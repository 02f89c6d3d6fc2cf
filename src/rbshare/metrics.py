"""Evaluation accounting: licensed spectral efficiency (with and without the
missed-bits deduction), the coexisting unlicensed link, acceptance / missed
ratios, latency CDFs and windowed learning curves, all kept as the run goes
in state that does not grow with the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from rbshare import channel as ch
from rbshare.environment import StepOutcome


@dataclass
class RunMetrics:
    """Per-run accumulators, fed one environment `StepOutcome` at a time.

    The unlicensed entity is one opportunistic link on the licensed channel's
    parameters and per-RB power, drawn from `unlicensed_rng` when the
    metrics are built and again after every `coherence_time` time steps.

    Every 100 time steps the learning curve takes the mean achievable SE
    (b/s/Hz) of the allocations attempted in the trailing `window` RL steps
    (0.0 if none): 1 000 in a run, others in tests. `trail` holds `(RL step,
    se_sum before it)` of each attempt since the last sample's window opened.
    """

    params: ch.ChannelParams
    unlicensed_rng: np.random.Generator
    window: int = 1000

    rl_steps: int = 0
    se_sum: float = 0.0                # achievable SE of every attempt so far
    trail: deque = field(default_factory=deque)
    learning_curve: list = field(default_factory=list)   # (time step, window mean)
    time_steps: int = 0
    delivered_bits: int = 0
    missed_bits: int = 0               # bits credited to later-missed requests
    accepted: int = 0
    dropped: int = 0
    missed: int = 0
    satisfied: int = 0
    latency: dict = field(default_factory=dict)      # type id -> {latency: count}
    unlicensed_bits: int = 0
    unlicensed_rb_steps: int = 0       # grid cells reported vacant
    unlicensed_bits_per_rb: tuple = field(init=False)   # the link's bits on each RB

    def __post_init__(self):
        self._redraw_unlicensed()

    def _redraw_unlicensed(self):
        _, self.unlicensed_bits_per_rb = ch.draw_link(self.params, self.unlicensed_rng)

    @property
    def arrivals(self) -> int:
        return self.accepted + self.dropped

    def record(self, out: StepOutcome):
        if out.alloc_se is not None:
            self.trail.append((self.rl_steps, self.se_sum))
            self.se_sum += out.alloc_se
        self.rl_steps += 1
        self.delivered_bits += out.delivered_bits
        self.accepted += out.accepted
        self.dropped += out.dropped
        for svc_id, latency, was_missed, bits in out.resolved:
            counts = self.latency.setdefault(svc_id, {})
            counts[latency] = counts.get(latency, 0) + 1
            if was_missed:
                self.missed += 1
                self.missed_bits += bits
            else:
                self.satisfied += 1
        vacant = out.vacant
        if vacant is not None:
            self.time_steps += 1
            for free, bits in zip(vacant, self.unlicensed_bits_per_rb):
                if free:
                    self.unlicensed_rb_steps += 1
                    self.unlicensed_bits += bits
            if self.time_steps % self.params.coherence_time == 0:
                self._redraw_unlicensed()
            if self.time_steps % 100 == 0:
                trail = self.trail
                while trail and trail[0][0] < self.rl_steps - self.window:
                    trail.popleft()
                self.learning_curve.append((self.time_steps, (
                    self.se_sum - trail[0][1]) / len(trail) if trail else 0.0))

    # -- derived quantities ------------------------------------------------------

    def se_licensed(self, adjusted: bool = False) -> float:
        if self.time_steps < 1:
            raise ValueError("no time steps recorded")
        total = self.delivered_bits - (self.missed_bits if adjusted else 0)
        return total / (self.params.rb_bits * self.params.num_rbs * self.time_steps)

    def se_unlicensed(self) -> float:
        if self.unlicensed_rb_steps == 0:
            return 0.0
        return self.unlicensed_bits / (self.params.rb_bits * self.unlicensed_rb_steps)

    def ratios(self) -> tuple[float, float]:
        """Acceptance and missed ratios; (1.0, 0.0) before any arrival."""
        acceptance = self.accepted / self.arrivals if self.arrivals else 1.0
        missed = self.missed / self.accepted if self.accepted else 0.0
        return acceptance, missed

    def latency_cdf(self, service_id: int) -> list[tuple[int, float]]:
        counts = self.latency.get(service_id)
        if not counts:
            raise ValueError(f"no latency samples for service type {service_id}")
        n = sum(counts.values())
        out, seen = [], 0
        for lat in sorted(counts):
            seen += counts[lat]
            out.append((lat, seen / n))
        return out

    def summary(self) -> dict:
        acceptance, missed = self.ratios()
        ran = self.time_steps > 0
        return {
            "time_steps": self.time_steps,
            "se_licensed": self.se_licensed() if ran else None,
            "se_licensed_adjusted": self.se_licensed(adjusted=True) if ran else None,
            "se_unlicensed": self.se_unlicensed() if ran else None,
            "acceptance_ratio": acceptance,
            "missed_ratio": missed,
            "missed_ratio_resolved": self.missed / max(self.satisfied + self.missed, 1),
            "abandoned": self.accepted - self.satisfied - self.missed,  # left by reset or end
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
