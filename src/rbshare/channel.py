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
    """Physical-layer parameters shared by all links in a cell.

    The unannotated names are constants, not fields. `rb_duration` is the
    time step. `carrier_freq`, `ref_distance`, `noise_temp` and
    `noise_figure_db` would each only scale every link's SNR by a constant,
    as `tx_power_total` does, so that field is the one SNR setting.
    """

    path_loss_exponent: float = 3.5
    shadowing_sigma: float = 5.2       # dB
    corr_param: float = 0.001          # inter-RB fading correlation, in [0, 1]
    coherence_time: int = 12           # time steps between small-scale redraws
    dist_min: float = 10.0             # m
    dist_max: float = 100.0            # m
    tx_power_total: float = 0.1        # W, split uniformly over RBs
    rb_bandwidth: float = 180e3        # Hz
    num_rbs: int = 6
    # The time step, fixed because the traffic's means and latency budgets
    # count in 1-ms steps.
    rb_duration = 1e-3                 # s
    carrier_freq = 1e9                 # Hz
    ref_distance = 10.0                # m
    noise_temp = 300.0                 # K
    noise_figure_db = 9.0

    @property
    def rb_bits(self) -> float:
        """W*T: bits one RB carries per unit of spectral efficiency."""
        return self.rb_bandwidth * self.rb_duration


@dataclass(frozen=True)
class CqiTable:
    """CQI -> achievable spectral efficiency lookup (16 entries, 4-bit CQI)."""

    efficiencies: tuple = LTE_CQI_EFFICIENCY

    @property
    def se_max(self) -> float:
        return self.efficiencies[-1]


def default_cqi_table() -> CqiTable:
    return CqiTable()


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
    eigval = np.clip(eigval, 0.0, None)
    root = ((eigvec * np.sqrt(eigval)) @ eigvec.T).astype(np.complex128)
    root.setflags(write=False)
    return root


def _fading_draws(n: int, params: ChannelParams, rng: np.random.Generator) -> list:
    """n correlated Rayleigh draws, each a unit-power complex gain per RB, from
    one normal draw with the values and stream of n draws of 2R. The product stays
    one `root @ z` per draw: `z @ root.T` is another BLAS kernel, with other bits."""
    r = params.num_rbs
    x = rng.standard_normal((n, 2, r))
    z = (x[:, 0] + 1j * x[:, 1]) / math.sqrt(2.0)
    root = _sqrt_correlation(params.corr_param, r)
    return [root @ zi for zi in z]


def draw_link(params: ChannelParams, rng: np.random.Generator) -> tuple[float, tuple]:
    """A new link's large-scale gain, fixed for its lifetime, and its per-RB bits."""
    _, gain = sample_large_scale(params, rng)
    return gain, link_deliverable_bits(gain, _fading_draws(1, params, rng)[0], params)


def redraw_small_scale(gains: list[float], params: ChannelParams,
                       rng: np.random.Generator) -> list[tuple]:
    """Each link's per-RB bits under new fading, in `gains` order, from one draw."""
    return [link_deliverable_bits(gain, h, params)
            for gain, h in zip(gains, _fading_draws(len(gains), params, rng))]


def noise_power(params: ChannelParams) -> float:
    """Thermal noise power over one RB bandwidth, including the noise figure."""
    return (
        BOLTZMANN
        * params.noise_temp
        * params.rb_bandwidth
        * 10.0 ** (params.noise_figure_db / 10.0)
    )


def link_deliverable_bits(gain: float, h: np.ndarray,
                          params: ChannelParams) -> tuple[int, ...]:
    """Per-RB deliverable bit counts of a link with large-scale power gain
    `gain` and small-scale fading row `h` (Def.-style t vector).

    The same chain as the scalar rules `sinr`, `sinr_to_cqi` and `deliverable_bits`
    of `tests/conftest.py` RB by RB, with the per-link constants taken out of the
    loop and plain floats and ints in it, so every value is bit for bit theirs.
    The CQI is the last efficiency <= capacity, found by bisection; a NaN
    capacity bisects to CQI 15 as the scalar scan does. |h| stays Python's
    `abs`: `np.abs` of a complex array rounds differently on some values.
    """
    p_rb = params.tx_power_total / params.num_rbs
    n0 = noise_power(params)
    wt = params.rb_bits
    eff = LTE_CQI_EFFICIENCY
    g = math.sqrt(gain)  # a complex times a real: the same product as numpy's
    return tuple([
        math.floor(wt * eff[bisect_right(eff, math.log2(1.0 + p_rb * abs(hk * g) ** 2 / n0)) - 1])
        for hk in h.tolist()
    ])
