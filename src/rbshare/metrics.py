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


@dataclass
class RunMetrics:
    """Per-run accumulators, fed one environment `StepOutcome` at a time.

    The unlicensed entity is one opportunistic link on the licensed channel's
    parameters and per-RB power, drawn from `unlicensed_rng` when the
    metrics are built and again after every `coherence_time` time steps.
    """

    params: ch.ChannelParams
    unlicensed_rng: np.random.Generator

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
    latency: dict = field(default_factory=dict)      # type id -> [latency]
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
            self.alloc_steps.append(self.rl_steps)
            self.alloc_se.append(out.alloc_se)
        self.rl_steps += 1
        self.delivered_bits += out.delivered_bits
        self.accepted += out.accepted
        self.dropped += out.dropped
        for svc_id, latency, was_missed, bits in out.resolved:
            self.latency.setdefault(svc_id, []).append(latency)
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
        samples = sorted(self.latency.get(service_id, []))
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
        idx = np.frombuffer(self.alloc_steps, dtype=np.int64)
        cum = np.concatenate([[0.0], np.cumsum(np.frombuffer(self.alloc_se))])
        out = []
        for n in range(100, self.time_steps + 1, 100):
            hi = np.searchsorted(idx, n * self.params.num_rbs, side="left")
            lo = np.searchsorted(idx, n * self.params.num_rbs - window, side="left")
            out.append((n, float((cum[hi] - cum[lo]) / (hi - lo)) if hi > lo else 0.0))
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
