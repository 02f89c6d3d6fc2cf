"""Request arrival process: three independent Poisson streams of typed
service requests, quantized to time-step boundaries.

One time step is 1 ms (`ChannelParams.rb_duration`, a fixed constant), so
inter-arrival means in ms and latency budgets in steps live on the same axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RATE_PROFILES = ("low", "high")

# (type id, PDU bits, max latency steps, {profile: mean inter-arrival ms})
_CATALOG = (
    (1, 3_200, 150, {"low": 10.0, "high": 5.0}),
    (2, 64_000, 200, {"low": 50.0, "high": 25.0}),
    (3, 200_000, 300, {"low": 100.0, "high": 50.0}),
)


@dataclass(frozen=True)
class ServiceType:
    id: int
    pdu_bits: int
    max_latency: int            # time steps
    mean_interarrival: float    # ms


@dataclass(frozen=True)
class Request:
    arrival_step: int    # first time step at which the request can be admitted
    service: ServiceType


def service_catalog(rate_profile: str) -> list[ServiceType]:
    return [
        ServiceType(tid, bits, latency, means[rate_profile])
        for tid, bits, latency, means in _CATALOG
    ]


def sample_interarrival(mean: float, rng: np.random.Generator) -> float:
    return mean * rng.standard_exponential()  # what `rng.exponential(mean)` computes


def generate_arrivals(
    catalog: list[ServiceType], horizon: int, rng: np.random.Generator
) -> list[Request]:
    """Merge the per-type renewal streams over `horizon` time steps.

    Continuous arrival times are ceiled to the next step boundary; ties within
    a step are ordered by type id, then by exact arrival time: each type's
    requests are appended in time order and the sort is stable.
    """
    requests: list[Request] = []
    for svc in catalog:
        t = sample_interarrival(svc.mean_interarrival, rng)
        while t < horizon:
            requests.append(Request(math.ceil(t), svc))
            t += sample_interarrival(svc.mean_interarrival, rng)
    requests.sort(key=lambda r: (r.arrival_step, r.service.id))
    return requests
