"""Poisson mass/quantile numerics and the two remaining-count estimators."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from tarstop.errors import DegenerateDistributionError, ValidationError
from tarstop import estimates
from tarstop.estimates import (
    _BLOCK_ELEMENTS,
    _FIRST_CHUNK,
    _mixture_pmf,
    _mixture_quantile,
    _summation_cap,
    estimate_remaining_cox,
    estimate_remaining_ip,
    log_factorials,
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

    @pytest.mark.parametrize("m", [2.5, 3.0, True, float("nan")])
    def test_count_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match=f"count must be an integer, got {m!r}"):
            poisson_pmf(5.0, m)

    def test_numpy_integer_count(self):
        assert poisson_pmf(5.0, np.int64(3)) == poisson_pmf(5.0, 3)

    def test_near_scipy_at_large_counts(self, rng):
        # log m! is a few ulps from scipy's; the exponent's rounding scales with it
        for mean, m in zip(rng.uniform(0.1, 500.0, 200), rng.integers(0, 2000, 200).tolist()):
            tolerance = 16 * np.spacing(float(gammaln(m + 1)) + m * abs(math.log(mean)) + mean)
            assert poisson_pmf(float(mean), m) == pytest.approx(
                stats.poisson.pmf(m, mean), rel=tolerance, abs=1e-300
            )


class TestLogFactorials:
    """The table's entries are math.lgamma(k + 1); scipy's gammaln is the oracle."""

    @staticmethod
    def ulps(ours, oracle) -> np.ndarray:
        ours, oracle = np.asarray(ours), np.asarray(oracle)
        return np.abs(ours - oracle) / np.spacing(np.abs(oracle))

    def test_table_within_4_ulps_of_gammaln_to_2_16(self):
        k = np.arange(2**16 + 1, dtype=float)
        table = log_factorials(k.size)
        assert table[:2].tolist() == [0.0, 0.0]
        assert self.ulps(table[2:], gammaln(k[2:] + 1)).max() <= 4

    def test_entries_within_4_ulps_of_gammaln_on_a_sample_to_2_22(self, rng):
        # the count limit of a quantile search; growing the table that far
        # would hold 32 MiB for the rest of the session, so sample its entries
        ks = rng.integers(2, 2**22, size=20_000).tolist() + [12, 13, 999, 1000, 2**22 - 1]
        ours = [math.lgamma(k + 1) for k in ks]
        assert self.ulps(ours, gammaln(np.array(ks, dtype=float) + 1)).max() <= 4

    def test_table_grows_by_doubling_and_keeps_its_values(self):
        small = log_factorials(100).copy()
        have = estimates._log_factorials.size
        large = log_factorials(have + 1)
        assert large.size == have + 1
        assert estimates._log_factorials.size == 2 * have
        assert np.array_equal(large[:100], small)
        assert not large.flags.writeable

    def test_growing_holds_little_more_than_the_table(self):
        # the table is module state, so it is grown in a fresh process; a
        # Python list of the new entries peaked at 5 times the table
        code = (
            "import math, tracemalloc\n"
            "from tarstop.estimates import log_factorials\n"
            "tracemalloc.start()\n"
            "table = log_factorials(2**20)\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "assert all(v == math.lgamma(k + 1) for k, v in enumerate(table.tolist()))\n"
            "print(peak / table.nbytes)\n"
        )
        src = Path(estimates.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert float(out.stdout) < 2.5


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

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95, 0.999])
    def test_equals_scipy_ppf(self, p):
        means = np.geomspace(0.01, 1e4, 400)
        ours = [poisson_quantile(mean, p) for mean in means.tolist()]
        assert ours == stats.poisson.ppf(p, means).astype(int).tolist()


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
    @pytest.mark.parametrize("i, j", [(10, math.nan), (math.nan, 100)])
    def test_nan_interval_end_rejected(self, i, j):
        curve = make_curve(RateKind.EXPONENTIAL, (1e-4, 1e-8), a=0.5, b=-0.01)
        with pytest.raises(ValueError, match="interval ends must be numbers"):
            estimate_remaining_cox(curve, i, j, 0.95)

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
        # past the memory bound StoppingConfig.cox_grid shares
        with pytest.raises(ValidationError):
            estimate_remaining_cox(curve, 1, 100, 0.95, grid=163)
        # an odd count of the wrong type, which numpy refused with a TypeError
        with pytest.raises(ValidationError, match="odd integer"):
            estimate_remaining_cox(curve, 1, 100, 0.95, grid=9.0)
        nine = estimate_remaining_cox(curve, 1, 100, 0.95, grid=9)
        assert estimate_remaining_cox(curve, 1, 100, 0.95, grid=np.int64(9)) == nine

    def test_all_grid_points_invalid(self):
        # b centred far above zero with tiny spread: every point violates b <= 0
        params = RateParams(RateKind.EXPONENTIAL, a=0.5, b=0.5)
        curve = RateCurve(params, (0.0, 1e-8), nrmse=0.01, points_used=20)
        with pytest.raises(DegenerateDistributionError):
            estimate_remaining_cox(curve, 1, 100, 0.95)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.0, math.nan])
    @pytest.mark.parametrize(
        "variances, b",
        [
            ((1e-4, 1e-8), -0.01),  # the mixture
            ((0.0, 1e-8), 0.5),  # every grid point invalid
            ((math.inf, 1e-8), -0.01),  # the fixed-mean fallback
            ((0.0, 0.0), -0.01),  # zero variances
        ],
    )
    def test_invalid_confidence(self, p, variances, b):
        # rejected before any grid work: the all-invalid grid would raise
        # DegenerateDistributionError, and p = 1 would size count arrays
        # up to the 2**22 limit
        params = RateParams(RateKind.EXPONENTIAL, a=0.5, b=b)
        curve = RateCurve(params, variances, nrmse=0.01, points_used=20)
        with pytest.raises(ValueError, match="confidence"):
            estimate_remaining_cox(curve, 100, 1000, p)

    def test_confidence_monotone_upper_bound(self):
        curve = make_curve(RateKind.EXPONENTIAL, (1e-4, 1e-8), a=0.5, b=-0.01)
        bounds = [
            estimate_remaining_cox(curve, 100, 1000, p).upper_bound
            for p in (0.5, 0.8, 0.9, 0.95, 0.99)
        ]
        assert bounds == sorted(bounds)


def _admissible(kind, values) -> bool:
    a = values[0]
    if kind is RateKind.HYPERBOLIC:
        return a > 0 and 0.0 <= values[1] <= 1.0 and values[2] > 0
    if kind is RateKind.AP_PRIOR:
        return a > 0
    return a > 0 and values[1] <= 0


def _point_params(kind, values, n_total) -> RateParams:
    if kind is RateKind.HYPERBOLIC:
        return RateParams(kind, a=values[0], b=values[1], c=values[2])
    if kind is RateKind.AP_PRIOR:
        return RateParams(kind, a=values[0], n_total=n_total)
    return RateParams(kind, a=values[0], b=values[1])


def _mixture_components(curve, i, j, grid=9):
    """Reference mixture decomposition, built one grid point at a time."""
    simpson = np.array([1.0] + [4.0 if k % 2 else 2.0 for k in range(1, grid - 1)] + [1.0])
    axes, axis_weights = [], []
    for mu, var in zip(curve.params.values(), curve.param_variance):
        if var == 0.0:
            axes.append(np.array([mu]))
            axis_weights.append(np.array([1.0]))
            continue
        sd = math.sqrt(var)
        pts = np.linspace(mu - 3.0 * sd, mu + 3.0 * sd, grid)
        axes.append(pts)
        axis_weights.append(simpson * np.exp(-0.5 * ((pts - mu) / sd) ** 2))
    kind = curve.params.kind
    masses, weights = [], []
    for values, ws in zip(itertools.product(*axes), itertools.product(*axis_weights)):
        if not _admissible(kind, values):
            continue
        params = _point_params(kind, values, curve.params.n_total)
        masses.append(rate_integral(params, i, j))
        weights.append(math.prod(ws))
    weights = np.asarray(weights)
    return np.asarray(masses), weights / weights.sum()


def _reference_pmf(masses, weights, size):
    """Mixture probabilities of the counts 0..size-1, one pmf row per component."""
    counts = np.arange(size, dtype=float)
    mixture = np.zeros(size)
    for w, lam in zip(weights, masses):
        if lam == 0.0:
            row = np.zeros(size)
            row[0] = 1.0
        else:
            row = np.exp(-lam + counts * np.log(lam) - log_factorials(size))
        mixture += w * row
    return mixture


def _reference_quantile(masses, weights, p):
    """Mixture quantile from a count array sized by the largest mass."""
    cap = int(masses.max() + 20.0 * math.sqrt(masses.max()) + 100.0)
    while True:
        cdf = np.cumsum(_reference_pmf(masses, weights, cap + 1))
        if cdf[-1] >= p:
            return int(np.searchsorted(cdf, p, side="left"))
        cap *= 2


def _reference_cox(curve, i, j, p, grid=9):
    """(mixture mean, upper bound) summing one pmf row per grid point."""
    masses, weights = _mixture_components(curve, i, j, grid)
    return float(weights @ masses), _reference_quantile(masses, weights, p)


def _random_cox_curve(rng, kind, n, zero_variance=None) -> RateCurve:
    if kind is RateKind.EXPONENTIAL:
        params = RateParams(kind, a=rng.uniform(0.1, 0.9), b=-rng.uniform(1e-3, 2e-2))
        variances = [rng.uniform(1e-6, 1e-2), rng.uniform(1e-10, 1e-5)]
    elif kind is RateKind.POWER_LAW:
        # wide enough in b to cross the b = -1 branch and the b <= 0 bound
        params = RateParams(kind, a=rng.uniform(0.2, 2.0), b=-rng.uniform(0.3, 1.5))
        variances = [rng.uniform(1e-4, 0.1), rng.uniform(1e-3, 0.05)]
    elif kind is RateKind.HYPERBOLIC:
        params = RateParams(
            kind, a=rng.uniform(0.1, 0.9), b=rng.uniform(0.05, 0.95), c=rng.uniform(1e-3, 5e-2)
        )
        variances = [rng.uniform(1e-5, 1e-2), rng.uniform(1e-4, 0.05), rng.uniform(1e-8, 1e-4)]
    else:
        params = RateParams(kind, a=rng.uniform(5.0, 200.0), n_total=n)
        variances = [rng.uniform(1.0, 100.0)]
    if zero_variance is not None:
        variances[zero_variance % len(variances)] = 0.0
    return RateCurve(params, tuple(float(v) for v in variances), nrmse=0.01, points_used=20)


class TestCoxMatchesPerPointReference:
    """The array-built grid and shared summation give the reference's exact
    numbers, not approximately equal ones."""

    @staticmethod
    def assert_exact(curve, i, j, p=0.95, grid=9):
        est = estimate_remaining_cox(curve, i, j, p, grid)
        mean, upper = _reference_cox(curve, i, j, p, grid)
        assert est.lambda_mass == mean
        assert est.upper_bound == upper
        assert not est.fallback

    @pytest.mark.parametrize("kind", list(RateKind))
    def test_random_curves(self, rng, kind):
        n = 3000
        for trial in range(6):
            curve = _random_cox_curve(rng, kind, n, zero_variance=trial if trial % 2 else None)
            i = int(rng.integers(2, 600))
            self.assert_exact(curve, i, n, p=float(rng.uniform(0.5, 0.99)))

    @pytest.mark.parametrize("b", [1e-9, 1.0 - 1e-9])
    def test_hyperbolic_b_near_branch_guards(self, b):
        # the b grid straddles the b -> 0 and b -> 1 guards (1e-9 from each)
        params = RateParams(RateKind.HYPERBOLIC, a=0.5, b=b, c=0.01)
        curve = RateCurve(params, (1e-4, 4e-19, 1e-7), nrmse=0.01, points_used=20)
        self.assert_exact(curve, 80, 2500)

    @pytest.mark.parametrize("kind", list(RateKind))
    def test_empty_interval(self, rng, kind):
        curve = _random_cox_curve(rng, kind, 500)
        est = estimate_remaining_cox(curve, 500, 500, 0.95)
        assert (est.lambda_mass, est.upper_bound) == (0.0, 0)
        self.assert_exact(curve, 500, 500)

    def test_finer_grid(self, rng):
        curve = _random_cox_curve(rng, RateKind.HYPERBOLIC, 2000)
        self.assert_exact(curve, 100, 2000, grid=15)


class TestCoxGridBounds:
    """The Cox grid keeps exactly the points ``_admissible`` keeps, on each
    bound of the families' ranges and one ulp either side of it."""

    BOUNDS = [("a", 0.0), ("b", 0.0), ("b", 1.0), ("c", 0.0)]

    @pytest.mark.parametrize("kind", list(RateKind))
    def test_mask_at_bounds(self, kind):
        names = list(kind.family.params)
        inside = {"a": 0.5, "b": 0.5 if kind is RateKind.HYPERBOLIC else -0.5, "c": 0.01}
        safe = [inside[name] for name in names]
        columns = []
        for name, bound in self.BOUNDS:
            if name not in names:
                continue
            for v in (math.nextafter(bound, -1.0), -0.0 if bound == 0.0 else bound, bound,
                      math.nextafter(bound, 2.0)):
                column = list(safe)
                column[names.index(name)] = v
                columns.append(column)
        points = np.array(columns).T
        got = kind.family.admits(points).tolist()
        assert got == [_admissible(kind, tuple(column)) for column in columns]
        assert True in got and False in got

    @pytest.mark.parametrize("kind, values, bounds", [
        # mean 0.75 and sd 0.25 put a three-point axis at 0, 0.75 and 1.5;
        # mean -0.75 at -1.5, -0.75 and 0; mean 0.25 at -0.5, 0.25 and 1
        (RateKind.EXPONENTIAL, {"a": 0.75, "b": -0.75}, (0.0, 0.0)),
        (RateKind.POWER_LAW, {"a": 0.75, "b": -0.75}, (0.0, 0.0)),
        (RateKind.HYPERBOLIC, {"a": 0.75, "b": 0.75, "c": 0.75}, (0.0, 0.0, 0.0)),
        (RateKind.HYPERBOLIC, {"a": 0.75, "b": 0.25, "c": 0.75}, (0.0, 1.0, 0.0)),
        (RateKind.AP_PRIOR, {"a": 0.75, "n_total": 600}, (0.0,)),
    ])
    def test_estimate_at_bounds(self, kind, values, bounds):
        curve = make_curve(kind, (0.0625,) * len(bounds), **values)
        for mu, bound in zip(curve.params.values(), bounds):
            assert bound in np.linspace(mu - 0.75, mu + 0.75, 3).tolist()
        TestCoxMatchesPerPointReference.assert_exact(curve, 10, 600, grid=3)


class TestMixtureBlocks:
    """The block-summed mixture equals the one-component-at-a-time sum with
    ``==``, and its quantile equals one searched from the largest mass."""

    @pytest.mark.parametrize("size", [101, 243, _BLOCK_ELEMENTS + 7])
    def test_blocks_match_per_component_sum(self, rng, size):
        curve = _random_cox_curve(rng, RateKind.HYPERBOLIC, 2000)
        masses, weights = _mixture_components(curve, 100, 2000, grid=15)
        if size > _BLOCK_ELEMENTS:  # one component per block; keep the reference short
            masses, weights = masses[:40], weights[:40] / weights[:40].sum()
        assert masses.size > 3 * max(1, _BLOCK_ELEMENTS // size)
        got = _mixture_pmf(masses, weights, size)
        assert np.array_equal(got, _reference_pmf(masses, weights, size))
        assert _mixture_quantile(masses, weights, 0.95) == _reference_quantile(
            masses, weights, 0.95
        )

    def test_zero_masses_among_positive(self, rng):
        masses = rng.uniform(0.1, 40.0, 300)
        masses[::7] = 0.0  # the first component of the first block among them
        masses[-1] = 0.0
        weights = rng.uniform(0.1, 1.0, 300)
        weights /= weights.sum()
        for size in (101, 400):
            got = _mixture_pmf(masses, weights, size)
            assert np.array_equal(got, _reference_pmf(masses, weights, size))
        for p in (0.05, 0.5, 0.95, 0.999):
            assert _mixture_quantile(masses, weights, p) == _reference_quantile(
                masses, weights, p
            )

    @pytest.mark.parametrize("extreme_weight", [1e-6, 0.2])
    def test_extreme_point_far_above_the_mean(self, rng, extreme_weight):
        # the first cap comes from the mean, far below the largest mass;
        # with weight 0.2 the quantile lies past it and the cap doubles
        masses = rng.uniform(3.0, 8.0, 80)
        masses[37] = 5000.0
        weights = rng.uniform(0.5, 1.0, 80)
        weights[37] = 0.0
        weights *= (1.0 - extreme_weight) / weights.sum()
        weights[37] = extreme_weight
        mean_cap = _summation_cap(float(weights @ masses))
        assert mean_cap < _summation_cap(float(masses.max())) / 3
        expected = _reference_quantile(masses, weights, 0.95)
        assert (expected > mean_cap) == (extreme_weight > 0.05)
        assert _mixture_quantile(masses, weights, 0.95) == expected

    def test_working_memory_stays_at_one_block(self):
        # grid 161 on a two-parameter family: 25,921 components, which all
        # at once would take 40 MiB of pmf rows
        curve = make_curve(RateKind.EXPONENTIAL, (1e-4, 1e-8), a=0.5, b=-0.01)
        masses, weights = _mixture_components(curve, 100, 1000, grid=161)
        assert masses.size == 161**2
        expected = _mixture_quantile(masses, weights, 0.95)  # grows the shared tables
        tracemalloc.start()
        try:
            assert _mixture_quantile(masses, weights, 0.95) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = _summation_cap(float(weights @ masses)) + 1
        block_bytes = 8 * max(_BLOCK_ELEMENTS, size)
        # the block, numpy's iteration buffers of one block each for a
        # broadcast operation on it, and a few count-sized arrays
        assert peak < 5 * block_bytes + 8 * (8 * size)


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

    def test_wild_grid_point_raises_at_once(self):
        # the mean is small, but one point's own count range is over the
        # limit: the mixture fails as that point would on its own
        masses = np.full(99, 5.0)
        masses[50] = 1e13
        weights = np.full(99, (1.0 - 1e-15) / 98)
        weights[50] = 1e-15
        assert _summation_cap(float(weights @ masses)) < 1000
        peak = self.peak_bytes(lambda: _mixture_quantile(masses, weights, 0.95))
        assert peak < 1 << 20

    def test_mean_below_the_cap_still_served(self):
        mean = 3.5e6
        q = poisson_quantile(mean, 0.95)
        assert stats.poisson.cdf(q, mean) >= 0.95 > stats.poisson.cdf(q - 1, mean)


# 1 - 2**-53, the largest float below 1: no summed cdf reaches it
NEAR_ONE = 0.9999999999999999


class TestChunkedSearch:
    """The quantile search sums counts in doubling chunks from 0 and stops
    at the first chunk whose cdf reaches p, with the reference's answer."""

    @staticmethod
    def mixture(rng, size=300):
        masses = rng.uniform(10.0, 30.0, size)
        weights = rng.uniform(0.1, 1.0, size)
        return masses, weights / weights.sum()

    @pytest.mark.parametrize("step", [0, 1])
    def test_quantile_at_the_first_chunk_boundary(self, rng, step):
        masses, weights = self.mixture(rng)
        width = max(_FIRST_CHUNK, _BLOCK_ELEMENTS // masses.size)
        cdf = np.cumsum(_reference_pmf(masses, weights, 4 * width))
        last = width - 1
        assert cdf[last - 1] < cdf[last] < cdf[last + 1] < 1.0
        # p = cdf[last] ends the search in the first chunk, on its last
        # count; the next float up ends it on the first count of the next
        p = float(cdf[last]) if step == 0 else math.nextafter(float(cdf[last]), 1.0)
        expected = _reference_quantile(masses, weights, p)
        assert expected == last + step
        assert _mixture_quantile(masses, weights, p) == expected

    def test_cdf_of_later_chunks_is_the_single_arrays(self, rng):
        # every cdf value of the second and third chunks, as p, returns its
        # own count: the chunked sums equal one array's to the bit
        masses, weights = self.mixture(rng)
        masses *= 4.0  # 40 to 120, so that the cdf stays below 1 in both
        width = max(_FIRST_CHUNK, _BLOCK_ELEMENTS // masses.size)
        cdf = np.cumsum(_reference_pmf(masses, weights, 7 * width)).tolist()
        ks = [k for k in range(width, 7 * width) if cdf[k - 1] < cdf[k] < 1.0]
        assert len(ks) > 4 * width
        assert [_mixture_quantile(masses, weights, cdf[k]) for k in ks] == ks

    def test_chunks_double_and_stop_at_the_quantile(self, rng, monkeypatch):
        masses, weights = self.mixture(rng)
        masses[0] = 400.0  # a cap for the largest mass far above the quantile
        chunks = []
        pmf = estimates._mixture_pmf

        def recording(masses, weights, size, start=0):
            chunks.append((start, size))
            return pmf(masses, weights, size, start)

        monkeypatch.setattr(estimates, "_mixture_pmf", recording)
        p = 0.999
        q = _mixture_quantile(masses, weights, p)
        assert q == _reference_quantile(masses, weights, p)
        assert [start for start, _ in chunks] == [0] + list(
            itertools.accumulate(size for _, size in chunks[:-1])
        )
        assert [size for _, size in chunks] == [chunks[0][1] * 2**k for k in range(len(chunks))]
        start, size = chunks[-1]
        assert len(chunks) > 1 and start <= q < start + size

    def test_low_confidence_gives_zero(self, rng):
        masses = rng.uniform(0.1, 2.0, 50)
        weights = np.full(50, 1.0 / 50)
        assert _reference_quantile(masses, weights, 0.05) == 0
        assert _mixture_quantile(masses, weights, 0.05) == 0
        assert poisson_quantile(1.0, 0.05) == 0

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.999, NEAR_ONE])
    def test_single_zero_mass(self, p):
        masses, weights = np.array([0.0]), np.array([1.0])
        assert _mixture_quantile(masses, weights, p) == _reference_quantile(masses, weights, p)
        assert poisson_quantile(0.0, p) == 0

    def test_near_one_confidence_raises_at_once(self):
        # the cdf rounds short of p: past the largest mass's cap the tail
        # is below e**-200 and cannot move it, so the search stops there
        one = np.array([1.0])
        assert np.cumsum(_reference_pmf(5.0 * one, one, 200))[-1] < NEAR_ONE
        peak = TestMemoryBound.peak_bytes(lambda: poisson_quantile(5.0, NEAR_ONE))
        assert peak < 1 << 20
        with pytest.raises(DegenerateDistributionError, match="short of p = 0.9999999999999999"):
            poisson_quantile(5.0, NEAR_ONE)
