import numpy as np
import pytest

from rbshare import traffic as tr


class TestCatalog:
    def test_high_profile(self):
        cat = tr.service_catalog("high")
        assert [(s.id, s.pdu_bits, s.max_latency, s.mean_interarrival) for s in cat] == [
            (1, 3_200, 150, 5.0),
            (2, 64_000, 200, 25.0),
            (3, 200_000, 300, 50.0),
        ]

    def test_low_profile(self):
        cat = tr.service_catalog("low")
        assert cat[2].mean_interarrival == 100.0
        assert cat[0].mean_interarrival == 10.0

    def test_profiles_share_sizes_and_latencies(self):
        low, high = tr.service_catalog("low"), tr.service_catalog("high")
        for a, b in zip(low, high):
            assert (a.pdu_bits, a.max_latency) == (b.pdu_bits, b.max_latency)


class TestArrivals:
    @pytest.mark.parametrize("rate", tr.RATE_PROFILES)
    def test_matches_exponential_draws(self, rate):
        """The requests that gaps drawn with `rng.exponential(mean)` and
        `np.ceil` give, at every catalog mean, from as much of the stream."""
        cat = tr.service_catalog(rate)
        rng, twin = np.random.default_rng(16), np.random.default_rng(16)
        reqs = tr.generate_arrivals(cat, 50_000, rng)
        want = []
        for svc in cat:
            t = twin.exponential(svc.mean_interarrival)
            while t < 50_000:
                want.append((int(np.ceil(t)), svc.id, t, svc))
                t += twin.exponential(svc.mean_interarrival)
        want.sort(key=lambda w: w[:3])
        assert reqs == [tr.Request(step, svc) for step, _, _, svc in want]
        assert all(type(r.arrival_step) is int for r in reqs)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_counts_near_expected(self):
        cat = tr.service_catalog("high")
        reqs = tr.generate_arrivals(cat, 100_000, np.random.default_rng(3))
        count_type1 = sum(1 for r in reqs if r.service.id == 1)
        assert count_type1 == pytest.approx(20_000, rel=0.03)

    def test_zero_horizon(self):
        assert tr.generate_arrivals(tr.service_catalog("low"), 0,
                                    np.random.default_rng(4)) == []

    def test_low_rate_half_of_high(self):
        low = tr.generate_arrivals(tr.service_catalog("low"), 200_000,
                                   np.random.default_rng(5))
        high = tr.generate_arrivals(tr.service_catalog("high"), 200_000,
                                    np.random.default_rng(6))
        for tid in (1, 2, 3):
            nl = sum(1 for r in low if r.service.id == tid)
            nh = sum(1 for r in high if r.service.id == tid)
            assert nl == pytest.approx(nh / 2, rel=0.05)

    def test_time_ordered(self):
        reqs = tr.generate_arrivals(tr.service_catalog("high"), 10_000,
                                    np.random.default_rng(7))
        steps = [r.arrival_step for r in reqs]
        assert steps == sorted(steps)

    def test_poisson_counts_within_3_sigma(self):
        horizon = 50_000
        cat = tr.service_catalog("low")
        reqs = tr.generate_arrivals(cat, horizon, np.random.default_rng(8))
        for svc in cat:
            n = sum(1 for r in reqs if r.service.id == svc.id)
            expected = horizon / svc.mean_interarrival
            assert abs(n - expected) < 3 * np.sqrt(expected)

    def test_streams_independent(self):
        horizon = 20_000
        reqs = tr.generate_arrivals(tr.service_catalog("high"), horizon,
                                    np.random.default_rng(9))
        counts = np.zeros((3, horizon + 1))
        for r in reqs:
            counts[r.service.id - 1, r.arrival_step] += 1
        c = np.corrcoef(counts)
        off_diag = c[~np.eye(3, dtype=bool)]
        assert np.abs(off_diag).max() < 0.05

    def test_tie_order_within_step(self):
        reqs = tr.generate_arrivals(tr.service_catalog("high"), 5_000,
                                    np.random.default_rng(10))
        by_step: dict[int, list] = {}
        for r in reqs:
            by_step.setdefault(r.arrival_step, []).append(r)
        # Two requests of one type in one step are equal values; the order by
        # continuous time between them is checked in test_matches_exponential_draws.
        for group in by_step.values():
            assert group == sorted(group, key=lambda r: r.service.id)
