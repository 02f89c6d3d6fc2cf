"""Channel model: large-scale path loss + shadowing, correlated Rayleigh
small-scale fading, SINR computation and CQI link adaptation.

All randomness comes from an explicit numpy Generator, so everything here is
pure given the rng and safe to use from parallel runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s
BOLTZMANN = 1.380649e-23  # J/K

# Standard LTE 4-bit CQI -> spectral efficiency column (b/s/Hz).
# Index 0 means "out of range" and carries zero efficiency.
LTE_CQI_EFFICIENCY = (
    0.0,
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770,
    1.1758, 1.4766, 1.9141, 2.4063, 2.7305,
    3.3223, 3.9023, 4.5234, 5.1152, 5.5547,
)


@dataclass(frozen=True)
class ChannelParams:
    """Physical-layer parameters shared by all links in a cell."""

    carrier_freq: float = 1e9          # Hz
    ref_distance: float = 10.0         # m
    path_loss_exponent: float = 3.5
    shadowing_sigma: float = 5.2       # dB
    corr_param: float = 0.001          # inter-RB fading correlation, in [0, 1]
    coherence_time: int = 12           # time steps between small-scale redraws
    dist_min: float = 10.0             # m
    dist_max: float = 100.0            # m
    tx_power_total: float = 0.1        # W, split uniformly over RBs
    rb_bandwidth: float = 180e3        # Hz
    rb_duration: float = 1e-3          # s
    num_rbs: int = 6
    noise_temp: float = 300.0          # K
    noise_figure_db: float = 9.0

    def __post_init__(self):
        if not 0.0 <= self.corr_param <= 1.0:
            raise ValueError(f"corr_param must be in [0, 1], got {self.corr_param}")
        if not self.dist_min < self.dist_max:
            raise ValueError("dist_min must be < dist_max")
        if self.coherence_time < 1:
            raise ValueError("coherence_time must be >= 1")
        if self.num_rbs < 1:
            raise ValueError("num_rbs must be >= 1")
        if self.ref_distance <= 0 or self.carrier_freq <= 0:
            raise ValueError("ref_distance and carrier_freq must be positive")
        if self.noise_temp <= 0 or self.rb_bandwidth <= 0:
            raise ValueError("noise_temp and rb_bandwidth must be positive")


@dataclass(frozen=True)
class CqiTable:
    """CQI -> achievable spectral efficiency lookup (16 entries, 4-bit CQI)."""

    efficiencies: tuple = LTE_CQI_EFFICIENCY

    def __post_init__(self):
        eff = self.efficiencies
        if len(eff) != 16 or eff[0] != 0.0:
            raise ValueError("table needs 16 entries with entry 0 == 0")
        if any(eff[i] >= eff[i + 1] for i in range(1, 15)):
            raise ValueError("efficiencies must be strictly increasing for CQI 1..15")

    @property
    def se_max(self) -> float:
        return self.efficiencies[-1]


def default_cqi_table() -> CqiTable:
    return CqiTable()


@dataclass
class LinkState:
    """Per-request link: fixed large-scale gain, vector of small-scale gains."""

    large_scale: float                  # linear power gain
    small_scale: np.ndarray             # complex, one entry per RB


def free_space_constant(params: ChannelParams) -> float:
    """Free-space loss at the reference distance, in dB."""
    return 20.0 * math.log10(
        SPEED_OF_LIGHT / (4.0 * math.pi * params.ref_distance * params.carrier_freq)
    )


def sample_large_scale(params: ChannelParams, rng: np.random.Generator):
    """Draw a user placement; returns (distance_m, linear power gain).

    The gain stays fixed for the request's whole lifetime.
    """
    # Exactly what `rng.uniform` and `rng.normal` compute (same values and
    # stream), without their argument handling, which costs more than the draw.
    d = params.dist_min + (params.dist_max - params.dist_min) * rng.random()
    shadowing = params.shadowing_sigma * rng.standard_normal()
    l_db = (
        free_space_constant(params)
        - 10.0 * params.path_loss_exponent * math.log10(d / params.ref_distance)
        + shadowing
    )
    return d, 10.0 ** (l_db / 10.0)


@lru_cache(maxsize=8)
def _sqrt_correlation(omega: float, num_rbs: int) -> np.ndarray:
    """Symmetric principal square root of the [omega^|m-l|] covariance, as
    complex128 so a draw multiplies it without casting it first."""
    idx = np.arange(num_rbs)
    phi = omega ** np.abs(idx[:, None] - idx[None, :])
    eigval, eigvec = np.linalg.eigh(phi)
    if eigval.min() < -1e-9:
        raise ValueError(f"fading covariance not PSD (min eigenvalue {eigval.min()})")
    eigval = np.clip(eigval, 0.0, None)
    root = ((eigvec * np.sqrt(eigval)) @ eigvec.T).astype(np.complex128)
    root.setflags(write=False)
    return root


def sample_small_scale(params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """One correlated Rayleigh draw: unit-power complex gain per RB."""
    r = params.num_rbs
    x = rng.standard_normal(2 * r)  # the same stream as two draws of r
    z = (x[:r] + 1j * x[r:]) / math.sqrt(2.0)
    return _sqrt_correlation(params.corr_param, r) @ z


def draw_link(params: ChannelParams, rng: np.random.Generator) -> LinkState:
    _, gain = sample_large_scale(params, rng)
    return LinkState(large_scale=gain, small_scale=sample_small_scale(params, rng))


def redraw_small_scale(links: list[LinkState], params: ChannelParams,
                       rng: np.random.Generator):
    """New small-scale gains for every link, in list order: the same values
    and stream as one `sample_small_scale` per link, from a single draw.

    The product stays one `root @ z` per link: a single `z @ root.T` over all
    links is a different BLAS kernel and does not give the same bits.
    """
    r = params.num_rbs
    x = rng.standard_normal((len(links), 2, r))
    z = (x[:, 0] + 1j * x[:, 1]) / math.sqrt(2.0)
    root = _sqrt_correlation(params.corr_param, r)
    for link, zi in zip(links, z):
        link.small_scale = root @ zi


def noise_power(params: ChannelParams) -> float:
    """Thermal noise power over one RB bandwidth, including the noise figure."""
    return (
        BOLTZMANN
        * params.noise_temp
        * params.rb_bandwidth
        * 10.0 ** (params.noise_figure_db / 10.0)
    )


def sinr(params: ChannelParams, h_k: complex) -> float:
    """Linear SINR with uniform per-RB power split."""
    return (params.tx_power_total / params.num_rbs) * abs(h_k) ** 2 / noise_power(params)


def sinr_to_cqi(sinr_linear: float, table: CqiTable) -> int:
    """Largest CQI whose efficiency stays below channel capacity.

    CQI 0 when even the lowest rate would exceed log2(1 + SINR).
    """
    capacity = math.log2(1.0 + sinr_linear)
    cqi = 15
    while cqi > 0 and table.efficiencies[cqi] > capacity:
        cqi -= 1
    return cqi


def cqi_to_se(cqi: int, table: CqiTable) -> float:
    if not 0 <= cqi <= 15:
        raise ValueError(f"CQI out of range: {cqi}")
    return table.efficiencies[cqi]


def deliverable_bits(cqi: int, params: ChannelParams, table: CqiTable) -> int:
    """Whole bits deliverable on one RB at the given CQI."""
    return int(
        math.floor(params.rb_bandwidth * params.rb_duration * cqi_to_se(cqi, table))
    )


def link_deliverable_bits(
    link: LinkState, params: ChannelParams, table: CqiTable
) -> tuple[int, ...]:
    """Per-RB deliverable bit counts for a link (Def.-style t vector).

    The same chain as `sinr`, `sinr_to_cqi` and `deliverable_bits` RB by RB,
    with the per-link constants taken out of the loop and plain floats and
    ints in it, so every value is bit for bit what the scalar rules give.
    The CQI is the last efficiency <= capacity, found by bisection; a NaN
    capacity bisects to CQI 15 as the scalar scan does. |h| stays Python's
    `abs`: `np.abs` of a complex array rounds differently on some values.
    """
    p_rb = params.tx_power_total / params.num_rbs
    n0 = noise_power(params)
    wt = params.rb_bandwidth * params.rb_duration
    eff = table.efficiencies
    g = math.sqrt(link.large_scale)  # a complex times a real: the same product as numpy's
    return tuple([
        math.floor(wt * eff[bisect_right(eff, math.log2(1.0 + p_rb * abs(hk * g) ** 2 / n0)) - 1])
        for hk in link.small_scale.tolist()
    ])
