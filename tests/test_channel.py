import math

import numpy as np
import pytest

from conftest import cqi_to_se, deliverable_bits, sample_link, sample_small_scale, sinr, \
    sinr_to_cqi
from rbshare import channel as ch


def params(**overrides):
    return ch.ChannelParams(**overrides)


def with_constants(**constants):
    """A `ChannelParams` subclass whose class constants `constants` replace."""
    return type("ChannelParams", (ch.ChannelParams,), constants)


class TestFreeSpaceConstant:
    def test_reference_value(self):
        assert ch.free_space_constant(params()) == pytest.approx(-52.44, abs=0.01)

    def test_unit_argument_gives_zero(self):
        p = with_constants(ref_distance=1.0, carrier_freq=ch.SPEED_OF_LIGHT / (4 * math.pi))()
        assert ch.free_space_constant(p) == pytest.approx(0.0, abs=1e-9)

    def test_doubling_distance_drops_6db(self):
        k1 = ch.free_space_constant(with_constants(ref_distance=10.0)())
        k2 = ch.free_space_constant(with_constants(ref_distance=20.0)())
        assert k1 - k2 == pytest.approx(20 * math.log10(2), abs=1e-9)


# Each constant, n being the path-loss exponent, and the `tx_power_total`
# factor that gives every link the same SNR: README "Configuration".
SNR_SCALES = {
    "carrier_freq": (2e9, lambda f, n: (1e9 / f) ** 2),
    "ref_distance": (20.0, lambda d0, n: (d0 / 10.0) ** (n - 2.0)),
    "noise_temp": (290.0, lambda t, n: 300.0 / t),
    "noise_figure_db": (7.0, lambda nf, n: 10.0 ** ((9.0 - nf) / 10.0)),
}


@pytest.mark.parametrize("name", SNR_SCALES)
def test_constant_only_scales_snr(name):
    """Moving one of these constants off its value gives the same per-RB bits,
    link by link, as scaling `tx_power_total` by its factor: so `channel.tx_power`
    is the one SNR setting a config needs. Out to 1 km, so the CQIs spread."""
    value, factor = SNR_SCALES[name]
    moved = with_constants(**{name: value})(dist_max=1000.0)
    p = params(dist_max=1000.0)
    scaled = params(dist_max=1000.0, tx_power_total=p.tx_power_total
                    * factor(value, p.path_loss_exponent))
    rng, twin = np.random.default_rng(20), np.random.default_rng(20)
    bits = [ch.draw_link(moved, rng)[1] for _ in range(2000)]
    assert bits == [ch.draw_link(scaled, twin)[1] for _ in range(2000)]
    assert len({b for link in bits for b in link}) == 16  # every CQI occurs


class TestLargeScale:
    def test_at_reference_distance_no_shadowing(self):
        p = params(shadowing_sigma=0.0, dist_min=10.0, dist_max=10.0 + 1e-9)
        _, gain = ch.sample_large_scale(p, np.random.default_rng(0))
        assert 10 * math.log10(gain) == pytest.approx(-52.44, abs=0.01)

    def test_at_100m_no_shadowing(self):
        p = params(shadowing_sigma=0.0, dist_min=100.0 - 1e-9, dist_max=100.0)
        _, gain = ch.sample_large_scale(p, np.random.default_rng(0))
        assert 10 * math.log10(gain) == pytest.approx(-87.44, abs=0.01)

    def test_shadowing_std(self):
        p = params(dist_min=50.0, dist_max=50.0 + 1e-12)
        rng = np.random.default_rng(42)
        samples = np.array(
            [10 * math.log10(ch.sample_large_scale(p, rng)[1]) for _ in range(100_000)]
        )
        assert samples.std() == pytest.approx(5.2, abs=0.1)

    def test_distance_uniform_support(self):
        p = params()
        rng = np.random.default_rng(7)
        ds = np.array([ch.sample_large_scale(p, rng)[0] for _ in range(2000)])
        assert ds.min() >= p.dist_min and ds.max() <= p.dist_max

    @pytest.mark.parametrize("overrides", [
        {}, {"dist_min": 400.0, "dist_max": 900.0}, {"shadowing_sigma": 0.0},
        {"dist_min": 10.0, "dist_max": 10.5, "shadowing_sigma": 1.0},
    ])
    def test_matches_uniform_and_normal_draws(self, overrides):
        """The placements and gains that `rng.uniform` for the distance and
        `rng.normal` for the shadowing give, from as much of the stream."""
        p = params(**overrides)
        rng, twin = np.random.default_rng(15), np.random.default_rng(15)
        k = ch.free_space_constant(p)
        for _ in range(20_000):
            d = twin.uniform(p.dist_min, p.dist_max)
            shadowing = twin.normal(0.0, p.shadowing_sigma)
            l_db = k - 10.0 * p.path_loss_exponent * math.log10(d / p.ref_distance) + shadowing
            assert ch.sample_large_scale(p, rng) == (d, 10.0 ** (l_db / 10.0))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestSmallScale:
    def test_omega_zero_identity_covariance(self):
        p = params(corr_param=0.0)
        rng = np.random.default_rng(1)
        draws = np.stack([sample_small_scale(p, rng) for _ in range(50_000)])
        cov = (draws.conj().T @ draws) / len(draws)
        assert np.allclose(cov, np.eye(p.num_rbs), atol=0.02)

    def test_omega_one_identical_components(self):
        p = params(corr_param=1.0)
        zeta = sample_small_scale(p, np.random.default_rng(2))
        assert np.allclose(zeta, zeta[0])

    @pytest.mark.parametrize("omega", [0.001, 0.5])
    def test_sample_covariance_matches_analytic(self, omega):
        p = params(corr_param=omega)
        rng = np.random.default_rng(3)
        draws = np.stack([sample_small_scale(p, rng) for _ in range(100_000)])
        cov = (draws.conj().T @ draws).real / len(draws)
        idx = np.arange(p.num_rbs)
        phi = omega ** np.abs(idx[:, None] - idx[None, :])
        assert np.abs(cov - phi).max() < 0.02

    def test_unit_power_per_component(self):
        p = params()
        rng = np.random.default_rng(4)
        draws = np.stack([sample_small_scale(p, rng) for _ in range(100_000)])
        power = (np.abs(draws) ** 2).mean(axis=0)
        assert np.all(np.abs(power - 1.0) < 0.02)


class TestNoiseAndSinr:
    def test_noise_reference(self):
        assert ch.noise_power(params()) == pytest.approx(5.92e-15, rel=1e-3)

    def test_noise_floor_without_figure(self):
        assert ch.noise_power(with_constants(noise_figure_db=0.0)()) == pytest.approx(
            7.455e-16, rel=1e-3
        )

    def test_noise_linear_in_bandwidth(self):
        assert ch.noise_power(params(rb_bandwidth=90e3)) == pytest.approx(
            ch.noise_power(params()) / 2
        )

    def test_sinr_reference(self):
        p = params()
        # d = 10 m, no shadowing, unit small-scale gain
        h = math.sqrt(10 ** (ch.free_space_constant(p) / 10))
        assert sinr(p, h) == pytest.approx(1.6e7, rel=0.01)

    def test_sinr_zero_channel(self):
        assert sinr(params(), 0.0) == 0.0

    def test_doubling_rbs_halves_sinr(self):
        assert sinr(params(num_rbs=12), 1.0) == pytest.approx(
            sinr(params(num_rbs=6), 1.0) / 2
        )


class TestCqiMapping:
    def test_capacity_between_levels(self):
        sinr = 2**2.59 - 1  # capacity exactly 2.59 b/s/Hz
        assert sinr_to_cqi(sinr) == 9

    def test_zero_sinr(self):
        assert sinr_to_cqi(0.0) == 0

    def test_saturated(self):
        assert sinr_to_cqi(1.6e7) == 15

    def test_lookup_values(self):
        assert cqi_to_se(0) == 0.0
        assert cqi_to_se(15) == 5.5547
        assert cqi_to_se(9) == 2.4063
        with pytest.raises(ValueError):
            cqi_to_se(16)

    def test_deliverable_bits(self):
        p = params()
        assert deliverable_bits(15, p) == 999
        assert deliverable_bits(0, p) == 0
        assert deliverable_bits(1, p) == 27

    def test_below_capacity_invariant(self):
        rng = np.random.default_rng(5)
        for sinr in 10 ** rng.uniform(-3, 8, size=2000):
            cqi = sinr_to_cqi(sinr)
            assert cqi_to_se(cqi) <= math.log2(1 + sinr)

    def test_cqi_monotone_in_sinr(self):
        sinrs = np.sort(10 ** np.random.default_rng(6).uniform(-3, 8, size=500))
        cqis = [sinr_to_cqi(s) for s in sinrs]
        assert all(a <= b for a, b in zip(cqis, cqis[1:]))


def test_link_constant_within_coherence_period():
    """Until its fading is redrawn, a link's bits are what `draw_link`
    returned: they depend on its gain and fading row alone."""
    p = params()
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    gain, bits = ch.draw_link(p, rng)
    twin_gain, h = sample_link(p, twin)
    assert twin_gain == gain
    for _ in range(5):
        assert ch.link_deliverable_bits(gain, h, p) == bits


@pytest.mark.parametrize("num_rbs", [1, 6, 25])
@pytest.mark.parametrize("corr_param", [0.0, 0.001, 0.5, 1.0])
def test_link_deliverable_bits_matches_scalar_rules(corr_param, num_rbs):
    """The per-link bit vector equals the scalar SINR -> CQI -> bits chain
    applied RB by RB, exactly: next to the antenna, at the cell edge, and far
    beyond it, where every CQI from 0 to 15 occurs."""
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    for dist_min, dist_max in ((10.0, 10.5), (99.5, 100.0), (400.0, 900.0)):
        p = params(corr_param=corr_param, num_rbs=num_rbs,
                   dist_min=dist_min, dist_max=dist_max)
        links = [(*sample_link(p, twin), ch.draw_link(p, rng)[1]) for _ in range(700)]
        check_against_scalar_rules(links, p)

    # Links whose per-RB SINR lands within a few ulps of each CQI threshold
    # 2**eff - 1, on both sides of it: random draws almost never do.
    p = params(corr_param=corr_param, num_rbs=num_rbs)
    unit = p.tx_power_total / p.num_rbs / ch.noise_power(p)  # SINR of |h| = 1
    near = []
    for eff in ch.LTE_CQI_EFFICIENCY[1:]:
        h = math.sqrt((2.0 ** eff - 1.0) / unit)
        for _ in range(24):
            h = math.nextafter(h, 0.0)
        for _ in range(48):
            near.append(h)
            h = math.nextafter(h, math.inf)
    # Both pick CQI 15 for an infinite or a NaN capacity.
    near += [0.0, math.inf, math.nan]
    near += [0.0] * (-len(near) % num_rbs)
    rows = [np.array(near[i:i + num_rbs], complex) for i in range(0, len(near), num_rbs)]
    links = [(1.0, h, ch.link_deliverable_bits(1.0, h, p)) for h in rows]
    with np.errstate(invalid="ignore"):  # inf * 1.0 as a complex product
        cqis = check_against_scalar_rules(links, p)
    for cqi in range(1, 16):  # every threshold is crossed within the ulps tried
        assert {cqi - 1, cqi} <= cqis


def check_against_scalar_rules(links, p) -> set:
    """Asserts the bits of each (gain, fading row, bits) link are the scalar
    chain's on that gain and row; returns the CQIs the scalar chain met."""
    cqis = set()
    for gain, h_row, bits in links:
        h = math.sqrt(gain) * h_row
        cqi = [sinr_to_cqi(sinr(p, hk)) for hk in h]
        cqis.update(cqi)
        expected = [deliverable_bits(c, p) for c in cqi]
        assert list(bits) == expected
    return cqis


@pytest.mark.parametrize("num_rbs", [1, 6, 25])
@pytest.mark.parametrize("corr_param", [0.0, 0.001, 0.5, 1.0])
def test_sample_small_scale_matches_reference_bytes(corr_param, num_rbs):
    """Each draw is, byte for byte, the correlation root times
    (x[:R] + j x[R:]) / sqrt(2) of 2R standard normals, with numpy's
    complex-by-real division (a multiply by the reciprocal; a true complex
    division differs in about a quarter of the values)."""
    p = params(corr_param=corr_param, num_rbs=num_rbs)
    root = ch._sqrt_correlation(corr_param, num_rbs)
    rng, twin = np.random.default_rng(18), np.random.default_rng(18)
    for _ in range(200):
        x = twin.standard_normal(2 * num_rbs)
        want = root @ ((x[:num_rbs] + 1j * x[num_rbs:]) / math.sqrt(2.0))
        got = sample_small_scale(p, rng)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("num_rbs", [1, 6, 25])
@pytest.mark.parametrize("corr_param", [0.0, 0.001, 0.5, 1.0])
def test_draw_link_matches_sequential_draws(corr_param, num_rbs):
    """A link is drawn as one `sample_large_scale` and then one
    `sample_small_scale`, and uses as much of the stream: its gain is the
    first's, and its bits are those of that gain and the second's row."""
    p = params(corr_param=corr_param, num_rbs=num_rbs)
    rng, twin = np.random.default_rng(19), np.random.default_rng(19)
    for _ in range(200):
        gain, bits = ch.draw_link(p, rng)
        want_gain, want_h = sample_link(p, twin)
        assert gain == want_gain
        assert len(bits) == num_rbs and all(type(b) is int for b in bits)
        assert bits == ch.link_deliverable_bits(want_gain, want_h, p)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("num_rbs", [1, 6, 25])
@pytest.mark.parametrize("corr_param", [0.0, 0.001, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 3, 10])
def test_fading_draws_match_sequential_draws(n, corr_param, num_rbs):
    """One draw of n fading rows gives, byte for byte, what n
    `sample_small_scale` calls give in order, and uses as much of the
    stream: the rows `draw_link` (n = 1) and `redraw_small_scale` turn
    into bits."""
    p = params(corr_param=corr_param, num_rbs=num_rbs)
    rng, twin = np.random.default_rng(10), np.random.default_rng(10)
    for _ in range(200 // n):
        rows = ch._fading_draws(n, p, rng)
        assert len(rows) == n
        for row in rows:
            want = sample_small_scale(p, twin)
            assert row.dtype == want.dtype and row.shape == (num_rbs,)
            assert row.tobytes() == want.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("num_rbs", [1, 6, 25])
@pytest.mark.parametrize("corr_param", [0.0, 0.001, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 3, 10])
def test_redraw_small_scale_matches_sequential_draws(n, corr_param, num_rbs):
    """One redraw of n links gives each link, in order, the bits of its own
    gain and of what n `sample_small_scale` calls in order give, and uses as
    much of the stream."""
    p = params(corr_param=corr_param, num_rbs=num_rbs)
    rng, twin = np.random.default_rng(10), np.random.default_rng(10)
    placement = np.random.default_rng(11)
    gains = [ch.sample_large_scale(p, placement)[1] for _ in range(n)]
    for _ in range(3):
        redrawn = ch.redraw_small_scale(gains, p, rng)
        assert len(redrawn) == n
        for gain, bits in zip(gains, redrawn):
            assert bits == ch.link_deliverable_bits(gain, sample_small_scale(p, twin), p)
        assert rng.bit_generator.state == twin.bit_generator.state
