"""Poisson mass/quantile numerics and the two remaining-count estimators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from tarstop.errors import DegenerateDistributionError, ValidationError
from tarstop.estimates import (
    estimate_remaining_cox,
    estimate_remaining_ip,
    poisson_pmf,
    poisson_quantile,
)
from tarstop.rates import RateCurve, RateKind, RateParams, rate_integral

from conftest import composite_simpson


def make_curve(kind, variances, **kwargs) -> RateCurve:
    params = RateParams(kind, **kwargs)
    return RateCurve(params, variances, nrmse=0.01, points_used=20)


class TestPoissonPmf:
    def test_paper_mean_example(self):
        assert poisson_pmf(4.5, 0) == pytest.approx(math.exp(-4.5), rel=1e-12)

    def test_zero_mean_point_mass(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_normalization(self):
        total = sum(poisson_pmf(4.5, m) for m in range(201))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_across_means(self, rng):
        for _ in range(200):
            mean = float(rng.uniform(0.0, 80.0))
            m = int(rng.integers(0, 120))
            assert poisson_pmf(mean, m) == pytest.approx(
                stats.poisson.pmf(m, mean), rel=1e-9, abs=1e-300
            )

    def test_large_mean_stability(self):
        # naive mean**m / m! overflows long before this
        value = poisson_pmf(5000.0, 5000)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(stats.poisson.pmf(5000, 5000.0), rel=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1.0, 0)
        with pytest.raises(ValueError):
            poisson_pmf(1.0, -1)


class TestPoissonQuantile:
    def test_derived_examples(self):
        assert poisson_quantile(4.5, 0.95) == 8
        assert poisson_quantile(0.09, 0.95) == 1

    def test_zero_mean(self):
        assert poisson_quantile(0.0, 0.5) == 0
        assert poisson_quantile(0.0, 0.999) == 0

    def test_defining_property_against_scipy(self, rng):
        for _ in range(500):
            mean = float(rng.uniform(0.0, 50.0))
            p = float(rng.uniform(0.01, 0.999))
            q = poisson_quantile(mean, p)
            assert stats.poisson.cdf(q, mean) >= p
            if q > 0:
                assert stats.poisson.cdf(q - 1, mean) < p

    def test_monotone_in_mean_and_p(self, rng):
        for _ in range(100):
            mean = float(rng.uniform(0.0, 30.0))
            p = float(rng.uniform(0.05, 0.95))
            q = poisson_quantile(mean, p)
            assert poisson_quantile(mean + rng.uniform(0, 5), p) >= q
            assert poisson_quantile(mean, min(p + 0.04, 0.999)) >= q

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            poisson_quantile(1.0, 0.0)
        with pytest.raises(ValueError):
            poisson_quantile(1.0, 1.0)


class TestEstimateRemainingIp:
    def test_paper_interval_mass(self):
        curve = make_curve(RateKind.POWER_LAW, (0.0, 0.0), a=1.0, b=-2.0)
        est = estimate_remaining_ip(curve, 10, 100, 0.95)
        assert est.lambda_mass == pytest.approx(0.09, abs=1e-12)
        assert est.upper_bound == 1

    def test_empty_interval(self):
        curve = make_curve(RateKind.EXPONENTIAL, (0.0, 0.0), a=0.5, b=-0.01)
        est = estimate_remaining_ip(curve, 40, 40, 0.95)
        assert est.lambda_mass == 0.0
        assert est.upper_bound == 0

    def test_against_simpson_and_cdf_oracle(self):
        curve = make_curve(RateKind.EXPONENTIAL, (0.0, 0.0), a=0.5, b=-0.01)
        est = estimate_remaining_ip(curve, 100, 1000, 0.95)
        mass = composite_simpson(
            lambda x: 0.5 * np.exp(-0.01 * x), 100, 1000
        )
        assert est.lambda_mass == pytest.approx(mass, rel=1e-6)
        assert stats.poisson.cdf(est.upper_bound, mass) >= 0.95
        assert stats.poisson.cdf(est.upper_bound - 1, mass) < 0.95

    def test_mass_additive_across_split(self, rng):
        curve = make_curve(RateKind.HYPERBOLIC, (0.0, 0.0, 0.0), a=0.4, b=0.3, c=0.01)
        for _ in range(25):
            i = int(rng.integers(1, 400))
            mid = i + int(rng.integers(1, 800))
            j = mid + int(rng.integers(1, 800))
            whole = estimate_remaining_ip(curve, i, j, 0.9).lambda_mass
            parts = (
                estimate_remaining_ip(curve, i, mid, 0.9).lambda_mass
                + estimate_remaining_ip(curve, mid, j, 0.9).lambda_mass
            )
            assert whole == pytest.approx(parts, rel=1e-9)

    def test_upper_bound_is_quantile_of_mass(self):
        curve = make_curve(RateKind.EXPONENTIAL, (0.0, 0.0), a=0.5, b=-0.005)
        est = estimate_remaining_ip(curve, 50, 4000, 0.99)
        assert est.upper_bound == poisson_quantile(est.lambda_mass, 0.99)


class TestEstimateRemainingCox:
    def test_zero_variance_equals_ip(self):
        curve = make_curve(RateKind.EXPONENTIAL, (0.0, 0.0), a=0.5, b=-0.01)
        assert estimate_remaining_cox(curve, 100, 1000, 0.95) == estimate_remaining_ip(
            curve, 100, 1000, 0.95
        )

    def test_mixture_mean_matches_monte_carlo(self):
        # spec'd fixture: exponential (0.5, -0.01), variances (1e-4, 1e-8)
        curve = make_curve(RateKind.EXPONENTIAL, (1e-4, 1e-8), a=0.5, b=-0.01)
        est = estimate_remaining_cox(curve, 100, 1000, 0.95, grid=9)
        draws = np.random.default_rng(424242)
        masses = []
        while len(masses) < 100000:
            a = draws.normal(0.5, 1e-2)
            b = draws.normal(-0.01, 1e-4)
            if a <= 0 or b > 0:
                continue
            masses.append(
                rate_integral(RateParams(RateKind.EXPONENTIAL, a=a, b=b), 100, 1000)
            )
        mc_mean = float(np.mean(masses))
        assert est.lambda_mass == pytest.approx(mc_mean, rel=0.02)
        ip_mass = estimate_remaining_ip(curve, 100, 1000, 0.95).lambda_mass
        assert est.lambda_mass == pytest.approx(ip_mass, rel=0.02)

    def test_sentinel_variance_falls_back_to_ip(self):
        curve = make_curve(RateKind.EXPONENTIAL, (math.inf, 1e-8), a=0.5, b=-0.01)
        est = estimate_remaining_cox(curve, 100, 1000, 0.95)
        ip = estimate_remaining_ip(curve, 100, 1000, 0.95)
        assert est.fallback
        assert (est.lambda_mass, est.upper_bound) == (ip.lambda_mass, ip.upper_bound)

    def test_overdispersion_versus_fixed_mean(self, rng):
        # mixture variance must dominate the fixed-mean Poisson variance
        for _ in range(20):
            a = float(rng.uniform(0.2, 0.8))
            b = float(-rng.uniform(0.002, 0.02))
            var_a = float(rng.uniform(1e-6, 1e-3))
            var_b = float(rng.uniform(1e-10, 1e-7))
            curve = make_curve(RateKind.EXPONENTIAL, (var_a, var_b), a=a, b=b)
            axes_masses, weights = _mixture_components(curve, 100, 2000)
            mean = weights @ axes_masses
            mix_var = weights @ (axes_masses + axes_masses**2) - mean**2
            ip_var = estimate_remaining_ip(curve, 100, 2000, 0.9).lambda_mass
            assert mix_var >= ip_var - 1e-9

    def test_mixture_cdf_reaches_one(self):
        curve = make_curve(RateKind.EXPONENTIAL, (1e-3, 1e-7), a=0.6, b=-0.004)
        est = estimate_remaining_cox(curve, 50, 3000, 0.95)
        masses, weights = _mixture_components(curve, 50, 3000)
        mean = float(weights @ masses)
        cap = int(mean + 20 * math.sqrt(mean) + 50)
        counts = np.arange(cap + 1, dtype=float)
        total = 0.0
        for w, lam in zip(weights, masses):
            total += w * stats.poisson.cdf(cap, lam)
        assert total >= 1.0 - 1e-9
        # CDF is monotone by construction; upper bound lies below the cap
        assert 0 <= est.upper_bound <= cap

    def test_grid_must_be_odd(self):
        curve = make_curve(RateKind.EXPONENTIAL, (1e-4, 1e-8), a=0.5, b=-0.01)
        with pytest.raises(ValidationError):
            estimate_remaining_cox(curve, 1, 100, 0.95, grid=8)
        with pytest.raises(ValidationError):
            estimate_remaining_cox(curve, 1, 100, 0.95, grid=1)

    def test_all_grid_points_invalid(self):
        # b centred far above zero with tiny spread: every point violates b <= 0
        params = RateParams(RateKind.EXPONENTIAL, a=0.5, b=0.5)
        curve = RateCurve(params, (0.0, 1e-8), nrmse=0.01, points_used=20)
        with pytest.raises(DegenerateDistributionError):
            estimate_remaining_cox(curve, 1, 100, 0.95)

    def test_confidence_monotone_upper_bound(self):
        curve = make_curve(RateKind.EXPONENTIAL, (1e-4, 1e-8), a=0.5, b=-0.01)
        bounds = [
            estimate_remaining_cox(curve, 100, 1000, p).upper_bound
            for p in (0.5, 0.8, 0.9, 0.95, 0.99)
        ]
        assert bounds == sorted(bounds)


def _mixture_components(curve, i, j):
    """Reference mixture decomposition used by the oracle-side checks."""
    from tarstop.estimates import _combo_params, _param_grids, _valid_combo

    axes, axis_weights = _param_grids(curve, 9)
    masses, weights = [], []
    for values, ws in zip(
        itertools.product(*axes), itertools.product(*axis_weights)
    ):
        if not _valid_combo(curve.params.kind, values):
            continue
        masses.append(
            rate_integral(_combo_params(curve.params.kind, values, None), i, j)
        )
        weights.append(math.prod(ws))
    weights = np.asarray(weights)
    return np.asarray(masses), weights / weights.sum()


class TestMemoryBound:
    """A wild fit's mass must fail cleanly, not size a huge count array."""

    @staticmethod
    def peak_bytes(fn) -> int:
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateDistributionError):
                fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_huge_mean_raises_at_once(self):
        assert self.peak_bytes(lambda: poisson_quantile(1e13, 0.95)) < 1 << 20

    def test_huge_mixture_mass_raises_at_once(self):
        curve = make_curve(RateKind.EXPONENTIAL, (1e12, 1e-14), a=1e13, b=-1e-6)
        peak = self.peak_bytes(lambda: estimate_remaining_cox(curve, 2, 1000, 0.95))
        assert peak < 1 << 20

    def test_mean_below_the_cap_still_served(self):
        mean = 3.5e6
        q = poisson_quantile(mean, 0.95)
        assert stats.poisson.cdf(q, mean) >= 0.95 > stats.poisson.cdf(q - 1, mean)
