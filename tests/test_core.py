import math

import numpy as np
import pytest

from swarmforage.core import (
    Arena,
    CpfaParams,
    DEFAULT_PARAMS,
    PheromoneWaypoint,
    RngStreams,
    derive_seed,
    load_params,
    pheromone_strength,
    poisson_cdf,
    save_params,
)
from swarmforage.engine import PheromoneManager


def brute_force_poisson_cdf(c, lam):
    # independent oracle: exact factorials, direct powers
    k = math.floor(c)
    return math.exp(-lam) * sum(lam**i / math.factorial(i) for i in range(k + 1))


class TestPoissonCdf:
    def test_lambda_zero_is_point_mass(self):
        assert poisson_cdf(5, 0.0) == 1.0

    def test_single_term(self):
        assert poisson_cdf(0, 1.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_three_term_series(self):
        expected = math.exp(-1) * (1 + 1 + 0.5)
        assert poisson_cdf(2, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_series(self):
        for lam in (0.01, 0.5, 1.0, 5.0, 20.0):
            for c in range(0, 51):
                assert abs(poisson_cdf(c, lam) - brute_force_poisson_cdf(c, lam)) < 1e-12

    def test_monotone_in_count(self):
        for lam in (0.01, 0.5, 1.0, 5.0, 20.0):
            values = [poisson_cdf(c, lam) for c in range(0, 51)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_rate(self):
        for c in (0, 3, 10):
            values = [poisson_cdf(c, lam) for lam in (0.01, 0.5, 1.0, 5.0, 20.0)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_floors_real_counts(self):
        assert poisson_cdf(2.9, 1.0) == poisson_cdf(2, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_cdf(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_cdf(1, -0.5)

    def test_bounded(self):
        for lam in (0.0, 1e-9, 1.0, 50.0):
            for c in (0, 1, 200):
                assert 0.0 <= poisson_cdf(c, lam) <= 1.0


class TestPheromoneMath:
    def test_zero_age(self):
        w = PheromoneWaypoint((0.0, 0.0), created_at=5.0)
        assert pheromone_strength(w, 5.0, 0.1) == 1.0

    def test_zero_decay(self):
        w = PheromoneWaypoint((0.0, 0.0), created_at=0.0)
        assert pheromone_strength(w, 10.0, 0.0) == 1.0

    def test_closed_form(self):
        w = PheromoneWaypoint((0.0, 0.0), created_at=0.0)
        assert pheromone_strength(w, 10.0, 0.1) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_negative_age_rejected(self):
        w = PheromoneWaypoint((0.0, 0.0), created_at=10.0)
        with pytest.raises(ValueError):
            pheromone_strength(w, 9.0, 0.1)

    def test_half_life(self):
        decay = 0.07
        half_life = math.log(2) / decay
        w = PheromoneWaypoint((0.0, 0.0), created_at=0.0)
        for k in (1, 2, 3):
            expected = 0.5**k
            got = pheromone_strength(w, k * half_life, decay)
            assert abs(got - expected) / expected < 1e-9

    @staticmethod
    def pruned(waypoints, now, decay_rate):
        manager = PheromoneManager(decay_rate)
        manager.waypoints = list(waypoints)
        manager.prune(now)
        return manager.waypoints

    def test_prune_empty(self):
        assert self.pruned([], 10.0, 0.1) == []

    def test_prune_keeps_fresh(self):
        w = PheromoneWaypoint((0.0, 0.0), created_at=10.0)
        assert self.pruned([w], 10.0, 0.1) == [w]

    def test_prune_drops_expired(self):
        # e^(-0.1 * 70) ~= 0.00091 < 0.001
        w = PheromoneWaypoint((0.0, 0.0), created_at=0.0)
        assert self.pruned([w], 70.0, 0.1) == []

    def test_prune_preserves_order(self):
        old = PheromoneWaypoint((0.0, 0.0), created_at=0.0)
        w1 = PheromoneWaypoint((1.0, 0.0), created_at=60.0)
        w2 = PheromoneWaypoint((2.0, 0.0), created_at=50.0)
        assert self.pruned([w1, old, w2], 70.0, 0.1) == [w1, w2]


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(12345).stream("robot/3").random(10_000)
        b = RngStreams(12345).stream("robot/3").random(10_000)
        assert np.array_equal(a, b)

    def test_named_streams_independent_of_consumption_order(self):
        s1 = RngStreams(7)
        _ = s1.stream("robot/0").random(50)
        first = s1.stream("robot/1").random(100)
        s2 = RngStreams(7)
        second = s2.stream("robot/1").random(100)
        assert np.array_equal(first, second)

    def test_distinct_robots_distinct_streams(self):
        streams = RngStreams(7)
        a = streams.robot(0).random(100)
        b = streams.robot(1).random(100)
        assert not np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = RngStreams(1).stream("layout").random(100)
        b = RngStreams(2).stream("layout").random(100)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
        assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)


class TestParams:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            CpfaParams(p_s=1.5, p_r=0.0, rho_u=0.0, lambda_i=0.0,
                       lambda_f=0.0, lambda_lp=0.0, lambda_d=0.0)

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "params.txt"
        save_params(DEFAULT_PARAMS, path)
        assert load_params(path) == DEFAULT_PARAMS

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("p_s = 0.5\n")
        with pytest.raises(ValueError):
            load_params(path)


class TestArena:
    def test_square(self):
        arena = Arena.square(6.0)
        assert arena.half_width == 3.0
        assert arena.contains(2.9, -2.9)
        assert not arena.contains(3.1, 0.0)

    def test_zone_must_fit(self):
        with pytest.raises(ValueError):
            Arena(0.4, center_zone_radius=0.5)
