import math

import numpy as np
import pytest

from rbshare import channel as ch


def params(**overrides):
    return ch.ChannelParams(**overrides)


class TestFreeSpaceConstant:
    def test_reference_value(self):
        assert ch.free_space_constant(params()) == pytest.approx(-52.44, abs=0.01)

    def test_unit_argument_gives_zero(self):
        p = params(ref_distance=1.0, carrier_freq=ch.SPEED_OF_LIGHT / (4 * math.pi))
        assert ch.free_space_constant(p) == pytest.approx(0.0, abs=1e-9)

    def test_doubling_distance_drops_6db(self):
        k1 = ch.free_space_constant(params(ref_distance=10.0))
        k2 = ch.free_space_constant(params(ref_distance=20.0))
        assert k1 - k2 == pytest.approx(20 * math.log10(2), abs=1e-9)


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


class TestSmallScale:
    def test_omega_zero_identity_covariance(self):
        p = params(corr_param=0.0)
        rng = np.random.default_rng(1)
        draws = np.stack([ch.sample_small_scale(p, rng) for _ in range(50_000)])
        cov = (draws.conj().T @ draws) / len(draws)
        assert np.allclose(cov, np.eye(p.num_rbs), atol=0.02)

    def test_omega_one_identical_components(self):
        p = params(corr_param=1.0)
        zeta = ch.sample_small_scale(p, np.random.default_rng(2))
        assert np.allclose(zeta, zeta[0])

    @pytest.mark.parametrize("omega", [0.001, 0.5])
    def test_sample_covariance_matches_analytic(self, omega):
        p = params(corr_param=omega)
        rng = np.random.default_rng(3)
        draws = np.stack([ch.sample_small_scale(p, rng) for _ in range(100_000)])
        cov = (draws.conj().T @ draws).real / len(draws)
        idx = np.arange(p.num_rbs)
        phi = omega ** np.abs(idx[:, None] - idx[None, :])
        assert np.abs(cov - phi).max() < 0.02

    def test_unit_power_per_component(self):
        p = params()
        rng = np.random.default_rng(4)
        draws = np.stack([ch.sample_small_scale(p, rng) for _ in range(100_000)])
        power = (np.abs(draws) ** 2).mean(axis=0)
        assert np.all(np.abs(power - 1.0) < 0.02)


class TestNoiseAndSinr:
    def test_noise_reference(self):
        assert ch.noise_power(params()) == pytest.approx(5.92e-15, rel=1e-3)

    def test_noise_floor_without_figure(self):
        assert ch.noise_power(params(noise_figure_db=0.0)) == pytest.approx(
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
        assert ch.sinr(p, h) == pytest.approx(1.6e7, rel=0.01)

    def test_sinr_zero_channel(self):
        assert ch.sinr(params(), 0.0) == 0.0

    def test_doubling_rbs_halves_sinr(self):
        assert ch.sinr(params(num_rbs=12), 1.0) == pytest.approx(
            ch.sinr(params(num_rbs=6), 1.0) / 2
        )


class TestCqiMapping:
    def setup_method(self):
        self.table = ch.default_cqi_table()

    def test_capacity_between_levels(self):
        sinr = 2**2.59 - 1  # capacity exactly 2.59 b/s/Hz
        assert ch.sinr_to_cqi(sinr, self.table) == 9

    def test_zero_sinr(self):
        assert ch.sinr_to_cqi(0.0, self.table) == 0

    def test_saturated(self):
        assert ch.sinr_to_cqi(1.6e7, self.table) == 15

    def test_lookup_values(self):
        assert ch.cqi_to_se(0, self.table) == 0.0
        assert ch.cqi_to_se(15, self.table) == 5.5547
        assert ch.cqi_to_se(9, self.table) == 2.4063
        with pytest.raises(ValueError):
            ch.cqi_to_se(16, self.table)

    def test_deliverable_bits(self):
        p = params()
        assert ch.deliverable_bits(15, p, self.table) == 999
        assert ch.deliverable_bits(0, p, self.table) == 0
        assert ch.deliverable_bits(1, p, self.table) == 27

    def test_below_capacity_invariant(self):
        rng = np.random.default_rng(5)
        for sinr in 10 ** rng.uniform(-3, 8, size=2000):
            cqi = ch.sinr_to_cqi(sinr, self.table)
            assert ch.cqi_to_se(cqi, self.table) <= math.log2(1 + sinr)

    def test_cqi_monotone_in_sinr(self):
        sinrs = np.sort(10 ** np.random.default_rng(6).uniform(-3, 8, size=500))
        cqis = [ch.sinr_to_cqi(s, self.table) for s in sinrs]
        assert all(a <= b for a, b in zip(cqis, cqis[1:]))


def test_link_constant_within_coherence_period():
    p = params()
    link = ch.draw_link(p, np.random.default_rng(8))
    table = ch.default_cqi_table()
    first = ch.link_deliverable_bits(link, p, table)
    for _ in range(5):
        assert np.array_equal(ch.link_deliverable_bits(link, p, table), first)


@pytest.mark.parametrize("num_rbs", [1, 6, 25])
@pytest.mark.parametrize("corr_param", [0.0, 0.001, 0.5, 1.0])
def test_link_deliverable_bits_matches_scalar_rules(corr_param, num_rbs):
    """The per-link bit vector equals the scalar SINR -> CQI -> bits chain
    applied RB by RB, exactly: next to the antenna, at the cell edge, and far
    beyond it, where every CQI from 0 to 15 occurs."""
    table = ch.default_cqi_table()
    rng = np.random.default_rng(9)
    for dist_min, dist_max in ((10.0, 10.5), (99.5, 100.0), (400.0, 900.0)):
        p = params(corr_param=corr_param, num_rbs=num_rbs,
                   dist_min=dist_min, dist_max=dist_max)
        for _ in range(700):
            link = ch.draw_link(p, rng)
            h = math.sqrt(link.large_scale) * link.small_scale
            expected = [ch.deliverable_bits(ch.sinr_to_cqi(ch.sinr(p, hk), table), p, table)
                        for hk in h]
            assert list(ch.link_deliverable_bits(link, p, table)) == expected
