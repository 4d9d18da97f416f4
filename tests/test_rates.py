"""Rate families: values, closed-form integrals, windows, fitting, NRMSE."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit, gammaln

from tarstop import rates
from tarstop.corpus import SyntheticSpec, generate_synthetic
from tarstop.errors import (
    DegenerateDataError,
    FitFailureError,
    InsufficientDataError,
    UndefinedRangeError,
    ValidationError,
)
from tarstop.rates import (
    RateCurve,
    RateKind,
    RateParams,
    WindowedEstimates,
    fit_rate,
    nrmse,
    rate_integral,
    rate_value,
    window_estimates,
)

from conftest import composite_simpson


def draw_params(kind: RateKind, rng) -> RateParams:
    a = float(rng.uniform(0.05, 2.0))
    if kind is RateKind.EXPONENTIAL:
        return RateParams(kind, a=a, b=float(-rng.uniform(1e-4, 0.05)))
    if kind is RateKind.POWER_LAW:
        return RateParams(kind, a=a, b=float(-rng.uniform(0.1, 2.5)))
    if kind is RateKind.HYPERBOLIC:
        return RateParams(
            kind, a=a, b=float(rng.uniform(0.0, 1.0)), c=float(rng.uniform(1e-3, 0.05))
        )
    return RateParams(kind, a=float(rng.uniform(1.0, 500.0)), n_total=int(rng.integers(6000, 200000)))


class TestRateValue:
    def test_exponential_at_origin(self):
        p = RateParams(RateKind.EXPONENTIAL, a=0.5, b=-0.01)
        assert rate_value(p, 0.0) == pytest.approx(0.5, abs=0)

    def test_power_law_point(self):
        p = RateParams(RateKind.POWER_LAW, a=1.0, b=-2.0)
        assert rate_value(p, 10.0) == pytest.approx(0.01, rel=1e-12)

    def test_hyperbolic_small_b_matches_exponential(self):
        hyp = RateParams(RateKind.HYPERBOLIC, a=1.0, b=1e-6, c=0.01)
        exp = RateParams(RateKind.EXPONENTIAL, a=1.0, b=-0.01)
        x = np.arange(1.0, 1001.0)
        diff = np.abs(np.asarray(rate_value(hyp, x)) - np.asarray(rate_value(exp, x)))
        assert diff.max() < 1e-4

    def test_hyperbolic_harmonic_limit(self):
        p = RateParams(RateKind.HYPERBOLIC, a=0.8, b=1.0, c=0.05)
        x = np.array([1.0, 10.0, 100.0])
        np.testing.assert_allclose(
            np.asarray(rate_value(p, x)), 0.8 / (1.0 + 0.05 * x), rtol=1e-12
        )

    def test_ap_prior_zero_at_collection_end(self):
        p = RateParams(RateKind.AP_PRIOR, a=1.0, n_total=1000)
        assert rate_value(p, 1000.0) == pytest.approx(0.0, abs=1e-15)

    def test_ap_prior_domain_error(self):
        p = RateParams(RateKind.AP_PRIOR, a=1.0, n_total=1000)
        with pytest.raises(ValidationError):
            rate_value(p, 1001.0)

    def test_monotone_decline(self, rng):
        x = np.linspace(1.0, 5000.0, 200)
        for kind in RateKind:
            for _ in range(25):
                p = draw_params(kind, rng)
                xs = x if kind is not RateKind.AP_PRIOR else np.linspace(1, p.n_total, 200)
                vals = np.asarray(rate_value(p, xs))
                assert np.all(np.diff(vals) <= 1e-12), (kind, p)


class TestRateIntegral:
    def test_paper_power_law_value(self):
        p = RateParams(RateKind.POWER_LAW, a=1.0, b=-2.0)
        assert rate_integral(p, 10, 100) == pytest.approx(0.09, abs=1e-12)

    def test_flat_exponential_is_area(self):
        p = RateParams(RateKind.EXPONENTIAL, a=0.05, b=0.0)
        assert rate_integral(p, 10, 100) == pytest.approx(4.5, abs=1e-12)

    def test_empty_interval(self, rng):
        for kind in RateKind:
            p = draw_params(kind, rng)
            assert rate_integral(p, 17, 17) == 0.0

    def test_reversed_interval_rejected(self):
        p = RateParams(RateKind.EXPONENTIAL, a=0.5, b=-0.01)
        with pytest.raises(ValueError):
            rate_integral(p, 10, 5)

    @pytest.mark.parametrize("i, j", [(1, math.nan), (math.nan, 10), (math.nan, math.nan)])
    def test_nan_interval_end_rejected(self, i, j):
        p = RateParams(RateKind.EXPONENTIAL, a=1.0, b=-0.5)
        with pytest.raises(ValueError, match="interval ends must be numbers"):
            rate_integral(p, i, j)

    def test_hyperbolic_matches_simpson(self):
        p = RateParams(RateKind.HYPERBOLIC, a=0.3, b=0.5, c=0.02)
        oracle = composite_simpson(lambda x: np.asarray(rate_value(p, x)), 1, 500)
        assert rate_integral(p, 1, 500) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("kind", list(RateKind))
    def test_closed_form_matches_simpson(self, kind, rng):
        for _ in range(60):
            p = draw_params(kind, rng)
            i = float(rng.uniform(1.0, 500.0))
            j = i + float(rng.uniform(1.0, 5000.0))
            if kind is RateKind.AP_PRIOR:
                j = min(j, float(p.n_total))
            closed = rate_integral(p, i, j)
            oracle = composite_simpson(lambda x: np.asarray(rate_value(p, x)), i, j)
            assert closed == pytest.approx(oracle, rel=1e-6), (p, i, j)

    def test_additivity(self, rng):
        for kind in RateKind:
            for _ in range(25):
                p = draw_params(kind, rng)
                i = float(rng.uniform(1.0, 400.0))
                mid = i + float(rng.uniform(0.5, 1000.0))
                j = mid + float(rng.uniform(0.5, 1000.0))
                if kind is RateKind.AP_PRIOR:
                    mid = min(mid, float(p.n_total) - 1.0)
                    j = min(j, float(p.n_total))
                whole = rate_integral(p, i, j)
                split = rate_integral(p, i, mid) + rate_integral(p, mid, j)
                assert whole == pytest.approx(split, rel=1e-9)

    def test_hyperbolic_singular_cases_continuous(self):
        # the b -> 0 and b -> 1 branches must join the general form
        for b_edge, b_near in ((0.0, 1e-7), (1.0, 1.0 - 1e-7)):
            edge = RateParams(RateKind.HYPERBOLIC, a=0.5, b=b_edge, c=0.02)
            near = RateParams(RateKind.HYPERBOLIC, a=0.5, b=b_near, c=0.02)
            assert rate_integral(edge, 1, 800) == pytest.approx(
                rate_integral(near, 1, 800), rel=1e-5
            )

    @pytest.mark.parametrize("kind", list(RateKind))
    def test_closed_forms_to_the_bit(self, kind, rng):
        # each family's integral is a times its unit-scale area: the Cox
        # grid multiplies an array of a by the same area and must match
        def literal(a, b=None, c=None, n=None):
            if kind is RateKind.EXPONENTIAL:
                return a * ((math.exp(b * j) - math.exp(b * i)) / b)
            if kind is RateKind.POWER_LAW:
                return a * ((j ** (b + 1.0) - i ** (b + 1.0)) / (b + 1.0))
            if kind is RateKind.HYPERBOLIC:
                e = 1.0 - 1.0 / b
                terms = math.exp(e * math.log1p(b * c * j)) - math.exp(e * math.log1p(b * c * i))
                return a * (terms / (c * (b - 1.0)))
            z = n * math.log(n) - math.lgamma(n + 1)
            return a * (((j * math.log(n / j) + j) - (i * math.log(n / i) + i)) / z)

        for _ in range(50):
            p = draw_params(kind, rng)
            i, j = int(rng.integers(1, 500)), int(rng.integers(600, 6000))
            if kind is RateKind.HYPERBOLIC and not 1e-9 <= p.b <= 1.0 - 1e-9:
                continue
            expected = literal(*p.values(), n=p.n_total)
            assert rate_integral(p, i, j) == expected
            a = np.array([p.a, 2.0 * p.a])
            unit = kind.family.area(i, j, p.n_total, *p.values()[1:])
            assert (a * unit).tolist() == [
                expected, literal(2.0 * p.a, *p.values()[1:], n=p.n_total)
            ]

    def test_ap_normalizer_near_scipy(self):
        # n log n - log n! cancels about log n of log n!'s digits
        for n in [2, 3, 12, 13, 999, 1000, 5000, 100_000, 10_000_000]:
            expected = n * math.log(n) - float(gammaln(n + 1))
            assert rates._ap_normalizer(n) == pytest.approx(expected, rel=4e-15 * math.log(n))

    def test_ap_prior_unscaled_mass_is_one(self):
        for n in (1000, 5000, 100000):
            p = RateParams(RateKind.AP_PRIOR, a=1.0, n_total=n)
            assert abs(rate_integral(p, 1, n) - 1.0) < 0.05


class TestWindowEstimates:
    def test_two_windows(self):
        w = window_estimates([1, 1, 0, 0], 2)
        assert w.x.tolist() == [1.5, 3.5]
        assert w.y.tolist() == [1.0, 0.0]

    def test_all_zero_prefix(self):
        w = window_estimates([0] * 100, 25)
        assert len(w) == 4
        assert np.all(w.y == 0.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            window_estimates([1, 0, 1, 0, 1], 10)

    @pytest.mark.parametrize("window", [2.5, 2.0, True])
    def test_non_integer_window_rejected(self, window):
        with pytest.raises(ValidationError) as err:
            window_estimates([1, 0, 1, 0, 1], window)
        assert str(err.value) == f"window_size must be an integer, got {window!r}"

    def test_numpy_integer_window(self):
        w = window_estimates([1, 0, 1, 0, 1], np.int64(2))
        assert w.x.tolist() == [1.5, 3.5, 5.0] and w.window_size == 2

    def test_short_tail_dropped(self):
        # tail of 2 < 25/2 is dropped
        w = window_estimates([1] * 52, 25)
        assert len(w) == 2

    def test_long_tail_averaged_over_actual_length(self):
        labels = [0] * 50 + [1] * 20
        w = window_estimates(labels, 25)
        assert len(w) == 3
        assert w.x[-1] == pytest.approx(50 + (20 + 1) / 2)
        assert w.y[-1] == pytest.approx(1.0)

    def test_centers_match_rank_midpoints(self):
        w = window_estimates([0, 1] * 30, 10)
        assert w.x.tolist() == [5.5, 15.5, 25.5, 35.5, 45.5, 55.5]
        assert np.all(w.y == 0.5)

    @pytest.mark.parametrize("window", [1, 2, 7, 10, 25])
    def test_matches_reference_loop(self, window, rng):
        def reference(labels, w):
            xs, ys = [], []
            full = len(labels) // w
            for start in range(0, full * w, w):
                xs.append(start + (w + 1) / 2.0)
                ys.append(np.mean(labels[start : start + w]))
            rem = len(labels) - full * w
            if rem and rem >= w / 2.0:
                xs.append(full * w + (rem + 1) / 2.0)
                ys.append(np.mean(labels[full * w :]))
            return np.asarray(xs), np.asarray(ys)

        labels = (rng.random(60 * window) < 0.3).astype(float)
        base = 40 * window
        # no tail, the longest tail, a tail of half a window, and a tail
        # just under half a window (dropped)
        tails = {0, window - 1, math.ceil(window / 2), math.ceil(window / 2) - 1}
        for size in sorted(base + t for t in tails):
            got = window_estimates(labels[:size], window)
            xs, ys = reference(labels[:size], window)
            assert np.array_equal(got.x, xs) and np.array_equal(got.y, ys), size


class TestFitRate:
    def _points(self, params, xs):
        y = np.asarray(rate_value(params, xs))
        return WindowedEstimates(xs, y, 25)

    def test_exponential_self_consistency(self):
        xs = np.arange(10.0, 500.0, 20.0)
        truth = RateParams(RateKind.EXPONENTIAL, a=0.5, b=-0.01)
        curve = fit_rate(self._points(truth, xs), RateKind.EXPONENTIAL, 5000)
        assert curve.params.a == pytest.approx(0.5, rel=1e-3)
        assert curve.params.b == pytest.approx(-0.01, rel=1e-3)
        assert curve.nrmse < 1e-6

    def test_power_law_self_consistency(self):
        xs = np.arange(10.0, 500.0, 20.0)
        truth = RateParams(RateKind.POWER_LAW, a=1.0, b=-1.2)
        curve = fit_rate(self._points(truth, xs), RateKind.POWER_LAW, 5000)
        assert curve.params.a == pytest.approx(1.0, rel=1e-2)
        assert curve.params.b == pytest.approx(-1.2, rel=1e-2)

    def test_hyperbolic_self_consistency(self):
        xs = np.arange(10.0, 800.0, 20.0)
        truth = RateParams(RateKind.HYPERBOLIC, a=0.6, b=0.5, c=0.02)
        curve = fit_rate(self._points(truth, xs), RateKind.HYPERBOLIC, 5000)
        assert curve.params.a == pytest.approx(0.6, rel=1e-2)
        assert curve.params.b == pytest.approx(0.5, rel=1e-2)
        assert curve.params.c == pytest.approx(0.02, rel=1e-2)

    def test_ap_prior_self_consistency(self):
        xs = np.arange(10.0, 800.0, 20.0)
        truth = RateParams(RateKind.AP_PRIOR, a=150.0, n_total=5000)
        curve = fit_rate(self._points(truth, xs), RateKind.AP_PRIOR, 5000)
        assert curve.params.a == pytest.approx(150.0, rel=1e-2)

    def test_too_few_points(self):
        pts = WindowedEstimates(np.array([1.0, 2.0]), np.array([0.5, 0.4]), 25)
        with pytest.raises(InsufficientDataError):
            fit_rate(pts, RateKind.EXPONENTIAL, 100)

    def test_all_zero_degenerate(self):
        pts = WindowedEstimates(
            np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4), 25
        )
        with pytest.raises(DegenerateDataError):
            fit_rate(pts, RateKind.EXPONENTIAL, 100)

    @pytest.mark.parametrize("n_total, message", [
        (50, r"defined on \[1, 50\]"), (1, "n_total >= 2"), (0, "n_total >= 2"),
    ])
    def test_ap_prior_inputs_checked(self, n_total, message):
        # window centres run up to 95.5, past n_total = 50
        pts = WindowedEstimates(np.arange(10) * 10.0 + 5.5, np.linspace(0.5, 0.1, 10), 10)
        with pytest.raises(ValidationError, match=message):
            fit_rate(pts, RateKind.AP_PRIOR, n_total)

    def test_constant_positive_observations_have_no_range(self):
        pts = WindowedEstimates(
            np.array([10.0, 20.0, 30.0, 40.0]), np.full(4, 0.25), 25
        )
        with pytest.raises(UndefinedRangeError):
            fit_rate(pts, RateKind.EXPONENTIAL, 100)

    def test_variance_shrinks_with_cleaner_data(self, rng):
        xs = np.arange(10.0, 500.0, 10.0)
        truth = RateParams(RateKind.EXPONENTIAL, a=0.5, b=-0.01)
        clean = np.asarray(rate_value(truth, xs))
        small = np.clip(clean + rng.normal(0, 0.002, xs.size), 0, 1)
        large = np.clip(clean + rng.normal(0, 0.05, xs.size), 0, 1)
        v_small = fit_rate(
            WindowedEstimates(xs, small, 10), RateKind.EXPONENTIAL, 5000
        ).param_variance
        v_large = fit_rate(
            WindowedEstimates(xs, large, 10), RateKind.EXPONENTIAL, 5000
        ).param_variance
        assert v_small[0] < v_large[0]
        assert all(v >= 0 for v in v_small + v_large)

    def test_exact_point_count_gives_sentinel_variance(self):
        # three points, three hyperbolic parameters: no residual dof
        truth = RateParams(RateKind.HYPERBOLIC, a=0.6, b=0.4, c=0.02)
        xs = np.array([10.0, 50.0, 120.0])
        curve = fit_rate(self._points(truth, xs), RateKind.HYPERBOLIC, 1000)
        assert all(math.isinf(v) for v in curve.param_variance)

    def test_hyperbolic_near_zero_b_matches_exponential_fit(self):
        xs = np.arange(10.0, 500.0, 20.0)
        truth = RateParams(RateKind.EXPONENTIAL, a=0.5, b=-0.01)
        pts = self._points(truth, xs)
        hyp = fit_rate(pts, RateKind.HYPERBOLIC, 5000)
        exp = fit_rate(pts, RateKind.EXPONENTIAL, 5000)
        diff = np.abs(
            np.asarray(rate_value(hyp.params, xs)) - np.asarray(rate_value(exp.params, xs))
        )
        assert diff.max() < 1e-3


class TestNrmse:
    def _curve(self, a=0.5, b=-0.01):
        return RateCurve(
            RateParams(RateKind.EXPONENTIAL, a=a, b=b), (0.0, 0.0), 0.0, 4
        )

    def test_perfect_fit_is_zero(self):
        xs = np.arange(10.0, 200.0, 25.0)
        curve = self._curve()
        y = np.asarray(rate_value(curve.params, xs))
        assert nrmse(curve, WindowedEstimates(xs, y, 25)) == 0.0

    def test_half_off_predictions(self):
        # observed [0, 1], both predicted 0.5 -> sqrt(0.25) / 1 = 0.5
        curve = RateCurve(
            RateParams(RateKind.EXPONENTIAL, a=0.5, b=0.0), (0.0, 0.0), 0.0, 2
        )
        pts = WindowedEstimates(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 2)
        assert nrmse(curve, pts) == pytest.approx(0.5, rel=1e-12)

    def test_constant_observations_rejected(self):
        pts = WindowedEstimates(np.array([1.0, 2.0]), np.array([0.3, 0.3]), 2)
        with pytest.raises(UndefinedRangeError):
            nrmse(self._curve(), pts)

    def test_scale_invariance(self):
        # doubling observed and predicted values leaves the ratio unchanged
        xs = np.arange(10.0, 200.0, 25.0)
        y = np.asarray(rate_value(self._curve().params, xs)) + 0.01
        one = nrmse(self._curve(a=0.5), WindowedEstimates(xs, y, 25))
        two = nrmse(self._curve(a=1.0), WindowedEstimates(xs, np.clip(2 * y, 0, 1), 25))
        assert one == pytest.approx(two, rel=1e-9)

    def test_single_point_rejected(self):
        pts = WindowedEstimates(np.array([1.0]), np.array([0.3]), 2)
        with pytest.raises(InsufficientDataError):
            nrmse(self._curve(), pts)


class TestRateParamsValidation:
    def test_hyperbolic_b_out_of_range(self):
        with pytest.raises(ValidationError):
            RateParams(RateKind.HYPERBOLIC, a=0.5, b=1.2, c=0.01)

    def test_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            RateParams(RateKind.EXPONENTIAL, a=0.0, b=-0.1)

    def test_ap_prior_needs_collection_size(self):
        with pytest.raises(ValidationError):
            RateParams(RateKind.AP_PRIOR, a=1.0)

    @pytest.mark.parametrize("n_total", [2.5, 5000.0, True])
    def test_ap_prior_collection_size_must_be_an_integer(self, n_total):
        with pytest.raises(ValidationError) as err:
            RateParams(RateKind.AP_PRIOR, a=1.0, n_total=n_total)
        assert str(err.value) == f"ap_prior n_total must be an integer, got {n_total!r}"

    def test_ap_prior_takes_a_numpy_integer(self):
        p = RateParams(RateKind.AP_PRIOR, a=1.0, n_total=np.int64(5000))
        assert rate_integral(p, 1, 100) == rate_integral(
            RateParams(RateKind.AP_PRIOR, a=1.0, n_total=5000), 1, 100
        )

    @pytest.mark.parametrize("kind, values, message", [
        (RateKind.EXPONENTIAL, {"a": math.nan, "b": -0.1}, "rate scale a must be > 0, got nan"),
        (RateKind.EXPONENTIAL, {"a": math.inf, "b": -0.1}, "rate scale a must be finite, got inf"),
        (RateKind.EXPONENTIAL, {"a": 0.5, "b": math.nan}, "exponential b must be finite, got nan"),
        (RateKind.POWER_LAW, {"a": 0.5, "b": -math.inf}, "power b must be finite, got -inf"),
        (RateKind.HYPERBOLIC, {"a": 0.5, "b": math.nan, "c": 0.01},
         "hyperbolic b must be in [0, 1], got nan"),
        (RateKind.HYPERBOLIC, {"a": 0.5, "b": 0.5, "c": math.inf},
         "hyperbolic c must be finite, got inf"),
    ])
    def test_non_finite_values_rejected(self, kind, values, message):
        with pytest.raises(ValidationError) as err:
            RateParams(kind, **values)
        assert str(err.value) == message

    def test_variance_arity_checked(self):
        p = RateParams(RateKind.EXPONENTIAL, a=0.5, b=-0.01)
        with pytest.raises(ValidationError):
            RateCurve(p, (0.1,), 0.0, 5)


def _central_differences(residual, t: np.ndarray, h: float = 1e-5) -> np.ndarray:
    cols = []
    for i in range(t.size):
        step = np.zeros(t.size)
        step[i] = h
        cols.append((residual(t + step) - residual(t - step)) / (2.0 * h))
    return np.stack(cols, axis=1)


_JACOBIAN_POINTS = [
    (RateKind.EXPONENTIAL, [math.log(0.5), math.log(0.01)]),
    (RateKind.EXPONENTIAL, [math.log(0.3), math.log(1e-4)]),
    (RateKind.POWER_LAW, [0.0, math.log(1.2)]),
    (RateKind.POWER_LAW, [math.log(0.4), math.log(0.3)]),
    (RateKind.AP_PRIOR, [math.log(100.0)]),
    (RateKind.HYPERBOLIC, [math.log(0.6), 0.0, math.log(0.02)]),  # b = 0.5
    (RateKind.HYPERBOLIC, [math.log(0.6), 3.0, math.log(0.005)]),
    # b just above 1e-9, and b near 1: the b column is about 1e-10, so a
    # wider step keeps the differences above their rounding noise
    (RateKind.HYPERBOLIC, [math.log(0.6), -20.0, math.log(0.02)], 1e-3),
    (RateKind.HYPERBOLIC, [math.log(0.6), 20.0, math.log(0.02)], 1e-3),
    (RateKind.HYPERBOLIC, [math.log(0.6), 27.0, math.log(0.02)], 1e-3),  # next to the clip
    (RateKind.HYPERBOLIC, [math.log(0.6), 29.0, math.log(0.02)]),  # b clipped
    (RateKind.EXPONENTIAL, [60.0, math.log(0.01)]),  # a clipped
]


class TestUnitCoordinate:
    def test_equals_scipy_expit_on_the_clipped_range(self, rng):
        ts = rng.uniform(-50.0, 50.0, 50_000)
        ours = [rates._UNIT.natural(t) for t in ts.tolist()]
        assert ours == np.clip(expit(ts), 1e-12, 1.0 - 1e-12).tolist()


class TestRateJacobian:
    @pytest.mark.parametrize("point", _JACOBIAN_POINTS)
    def test_matches_central_differences(self, point):
        kind, t, *step = point
        xs = np.arange(13.0, 2000.0, 25.0)
        pts = WindowedEstimates(xs, np.full(xs.size, 0.1), 25)
        residual, jacobian = rates._fit_problem(pts, kind, 5000)
        t = np.array(t)
        jac = jacobian(t)
        fd = _central_differences(residual, t, *step)
        assert jac.shape == (xs.size, t.size)
        for col in range(t.size):
            scale = max(np.abs(jac[:, col]).max(), np.abs(fd[:, col]).max())
            assert np.abs(jac[:, col] - fd[:, col]).max() <= 1e-6 * scale + 1e-12, col

    def test_small_b_branch_takes_the_limit_slope(self):
        # Below b = 1e-9 the rate is evaluated at its b -> 0 limit, so the
        # residual does not move with b there; the b column is the limit's
        # slope instead, and it meets the general formula at the guard.
        xs = np.arange(13.0, 2000.0, 25.0)
        pts = WindowedEstimates(xs, np.full(xs.size, 0.1), 25)
        residual, jacobian = rates._fit_problem(pts, RateKind.HYPERBOLIC, 5000)
        per_b = []
        for b in (0.999e-9, 1.001e-9):
            t = np.array([math.log(0.6), math.log(b / (1.0 - b)), math.log(0.02)])
            per_b.append(jacobian(t)[:, 1] / (b * (1.0 - b)))
        np.testing.assert_allclose(per_b[0], per_b[1], rtol=1e-5)
        t = np.array([math.log(0.6), -25.0, math.log(0.02)])
        jac, fd = jacobian(t), _central_differences(residual, t)
        np.testing.assert_allclose(jac[:, [0, 2]], fd[:, [0, 2]], rtol=1e-6, atol=1e-12)
        assert np.all(jac[:, 1] > 0)

    def test_clipped_coordinates_have_zero_columns(self):
        xs = np.arange(13.0, 500.0, 25.0)
        pts = WindowedEstimates(xs, np.full(xs.size, 0.1), 25)
        _res, jacobian = rates._fit_problem(pts, RateKind.HYPERBOLIC, 5000)
        assert not jacobian(np.array([0.0, 29.0, -4.0]))[:, 1].any()
        assert not jacobian(np.array([0.0, -29.0, -4.0]))[:, 1].any()
        assert not jacobian(np.array([0.0, 0.0, -51.0]))[:, 2].any()
        assert jacobian(np.array([0.0, 0.0, -4.0])).all()


def _fit_corpus():
    """Windowed prefixes of synthetic topics of every kind, clean and noisy,
    plus near-flat (uniform) rankings."""
    shapes = {
        "exponential": {"a": 0.6, "b": -0.004},
        "hyperbolic": {"a": 0.7, "b": 0.5, "c": 0.01},
        "power": {"a": 0.9, "b": -0.6},
        "ap_prior": {"a": 60.0},
        "uniform": {"a": 0.05},
    }
    for kind, params in shapes.items():
        for noise in (0.0, 0.02):
            for seed in (1, 2):
                spec = SyntheticSpec(n=3000, kind=kind, params=params, seed=seed, noise=noise)
                labels = generate_synthetic(spec).labels
                for k in (300, 900, 2100):
                    for window in (10, 25):
                        pts = window_estimates(labels[:k], window)
                        if np.any(pts.y > 0):
                            yield f"{kind}-{noise}-{seed}-{k}-{window}", pts


class TestLevenbergMarquardt:
    def test_agrees_with_minpack_on_a_corpus(self):
        # MINPACK's lmder through scipy is the reference. The two solve the
        # same steps by different factorizations, so they agree to rounding
        # on well-posed fits and may part along a flat valley or a ridge.
        # Only the hyperbolic is fitted by LM; the other families are not.
        from scipy.optimize import least_squares

        compared = 0
        for name, pts in _fit_corpus():
            residual, jacobian = rates._fit_problem(pts, RateKind.HYPERBOLIC, 3000)
            t0, budget = rates._hyperbolic_start(pts.y), rates._LM_BUDGET
            ref = least_squares(residual, t0, jac=jacobian, method="lm", max_nfev=budget)
            if ref.status <= 0:
                with pytest.raises(FitFailureError):
                    rates._levenberg_marquardt(residual, jacobian, t0, budget)
                continue
            t, fvec = rates._levenberg_marquardt(residual, jacobian, t0, budget)
            # 1e-7 on the fits within NRMSE 0.2, 1e-3 on the loose rest
            slack = 1e-7 if rates._nrmse_raw(ref.fun, pts.y) <= 0.2 else 1e-3
            assert 0.5 * float(fvec @ fvec) <= ref.cost * (1 + slack), name
            with np.errstate(all="ignore"):
                cond = np.linalg.cond(ref.jac.T @ ref.jac)
            if cond <= 1e8:
                ours = np.array(rates._natural(RateKind.HYPERBOLIC, t))
                theirs = np.array(rates._natural(RateKind.HYPERBOLIC, ref.x))
                np.testing.assert_allclose(ours, theirs, rtol=1e-4, err_msg=name)
                compared += 1
        assert compared >= 34  # 36 of the 120 fits at the time of writing

    def test_a_column_far_shorter_than_the_others_keeps_its_digits(self):
        # Near b = 1 the hyperbolic b column is about 1e-9 of the others, so
        # its square is lost in J^T J unless the system is scaled to a unit
        # diagonal first; unscaled, this fit stopped 1.1% above MINPACK's cost.
        from scipy.optimize import least_squares

        spec = SyntheticSpec(n=3000, kind="power", params={"a": 0.6, "b": -0.5}, seed=1)
        pts = window_estimates(generate_synthetic(spec).labels[:750], 25)
        residual, jacobian = rates._fit_problem(pts, RateKind.HYPERBOLIC, 3000)
        t0 = rates._hyperbolic_start(pts.y)
        ref = least_squares(residual, t0, jac=jacobian, method="lm", max_nfev=6000)
        _t, fvec = rates._levenberg_marquardt(residual, jacobian, t0, 6000)
        assert 0.5 * float(fvec @ fvec) <= ref.cost * (1 + 1e-7)

    @pytest.mark.parametrize("jtj, g, step", [
        # a zero column, as at a clipped coordinate, is held still
        (np.diag([4.0, 0.0]), [2.0, 0.0], [-0.5, 0.0]),
        # an exactly singular system is solved with eps * trace added
        (np.ones((2, 2)), [1.0, 1.0], [-0.5, -0.5]),
    ])
    def test_singular_systems_take_finite_steps(self, jtj, g, step):
        g, diag = np.array(g), np.ones(2)
        assert rates._lmpar(jtj, g, diag, 100.0, 0.0) == (0.0, pytest.approx(step))
        # a trust region that cuts the step: the damped step meets its bound
        par, damped = rates._lmpar(jtj, g, diag, 0.1, 0.0)
        assert par > 0.0 and abs(np.linalg.norm(damped) - 0.1) <= 0.01
        assert np.all(damped[np.asarray(step) == 0.0] == 0.0)

    def test_exhausted_budget_raises(self):
        xs = np.arange(1.0, 40.0) * 25.0 - 12.0
        pts = WindowedEstimates(xs, np.exp(-xs / 300.0) * 0.5, 25)
        residual, jacobian = rates._fit_problem(pts, RateKind.HYPERBOLIC, 2000)
        with pytest.raises(FitFailureError, match="in 3 evaluations"):
            rates._levenberg_marquardt(residual, jacobian, rates._hyperbolic_start(pts.y), 3)

    def test_wild_fits_raise_no_warning(self):
        xs = np.arange(1.0, 40.0) * 25.0 - 12.0
        shapes = [
            np.r_[1.0, 0.04, np.zeros(37)],
            np.linspace(0.0, 0.5, 39),
            np.r_[np.zeros(38), 0.04],
            np.r_[np.full(38, 0.04), 0.08],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in shapes:
                for kind in RateKind:
                    curve = fit_rate(WindowedEstimates(xs, y, 25), kind, 2000)
                    assert math.isfinite(curve.nrmse)


def _least_profiled_sse(u: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Least squared error of a * exp(-e^s u) to y at each s, over a with
    |log a| <= 50, the fit's clip range. Each row is exp(b (u - u1)) times
    its scale, which is a * exp(b u1); the product is never formed."""
    out = []
    for part in np.array_split(s, max(1, s.size * u.size // 2**16)):
        b = -np.exp(part)[:, None]
        g = np.exp(b * (u - u[0]))
        with np.errstate(over="ignore"):
            lo, hi = np.exp(b[:, 0] * u[0] - 50.0), np.exp(b[:, 0] * u[0] + 50.0)
        scale = np.clip((g @ y) / (g * g).sum(axis=1), lo, hi)
        out.append(((scale[:, None] * g - y) ** 2).sum(axis=1))
    return np.concatenate(out)


_DENSE = np.linspace(-50.0, 50.0, 20_001)
_DECLINES = [(RateKind.EXPONENTIAL, lambda x: x), (RateKind.POWER_LAW, np.log)]


def _window_series(shape: str, m: int, seed: int):
    """Window means of 25 labels each at m window centres."""
    rng = np.random.default_rng(seed)
    x = np.arange(m) * 25.0 + 13.0
    p = {
        "decaying": lambda: 0.7 * np.exp(-x / (rng.uniform(0.1, 1.0) * x[-1])),
        "flat": lambda: np.full(m, 0.1),
        "rising": lambda: 0.05 + 0.5 * x / x[-1],
        "spiky": lambda: np.r_[1.0, np.where(rng.random(m - 1) < 0.05, 0.8, 0.0)],
    }[shape]()
    y = rng.binomial(25, p) / 25.0
    y[0] = max(y[0], 0.04)  # a range and a positive mean at every size
    y[-1] = min(y[-1], 0.96)
    return x, y


def _sse(curve: RateCurve, x: np.ndarray, y: np.ndarray) -> float:
    return float(((np.asarray(rate_value(curve.params, x)) - y) ** 2).sum())


class TestVariableProjection:
    @pytest.mark.parametrize("m", [3, 30, 300, 4000])
    @pytest.mark.parametrize("shape", ["decaying", "flat", "rising", "spiky"])
    def test_reaches_the_least_profiled_error(self, shape, m):
        # the global minimum over |s| <= 50, to within what the curve's
        # rounding in its natural parameters, exp(log a) * exp(b x), allows
        x, y = _window_series(shape, m, seed=m)
        for kind, u in _DECLINES:
            least = float(_least_profiled_sse(u(x), y, _DENSE).min())
            sse = _sse(fit_rate(WindowedEstimates(x, y, 25), kind, 10**6), x, y)
            assert sse <= least * (1 + 1e-9) + 1e-26 * float(y @ y), kind

    def test_two_basins_of_nearly_equal_depth(self):
        # A spike on a slow decline: the profiled error has one basin of
        # slow curves (s < -4.5) and one of steep ones. At the spike height
        # where they tie, either tilt lets one basin win by a relative 1e-6,
        # far less than a coarse grid resolves; so in one of the two the
        # winner has the worse coarse sample, and a fit that refines only
        # the coarse argmin ends in the other basin.
        x = np.arange(40) * 25.0 + 13.0
        tail = 0.12 * np.exp(-np.arange(39) / 40.0)
        slow, steep = _DENSE < -4.5, _DENSE >= -4.5

        def depths(h):
            sse = _least_profiled_sse(x, np.r_[h, tail], _DENSE)
            return float(sse[slow].min()), float(sse[steep].min())

        lo, hi = 0.6, 0.7  # the slow basin wins at 0.6, the steep one at 0.7
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            slow_min, steep_min = depths(mid)
            lo, hi = (mid, hi) if slow_min < steep_min else (lo, mid)
        for h in (lo - 4e-7, hi + 4e-7):
            slow_min, steep_min = depths(h)
            assert abs(slow_min / steep_min - 1.0) > 1e-7
            y = np.r_[h, tail]
            sse = _sse(fit_rate(WindowedEstimates(x, y, 25), RateKind.EXPONENTIAL, 10**6), x, y)
            assert sse <= min(slow_min, steep_min) * (1 + 1e-9), h

    def test_single_spike_fits_a_steep_curve_at_once(self):
        # Levenberg-Marquardt drove b towards -infinity here until all
        # 4,000 evaluations were spent, and raised FitFailureError
        xs = np.arange(1.0, 40.0) * 25.0 - 12.0
        spike = WindowedEstimates(xs, np.r_[1.0, np.zeros(38)], 25)
        for kind in (RateKind.EXPONENTIAL, RateKind.POWER_LAW):
            start = time.perf_counter()
            curve = fit_rate(spike, kind, 2000)
            assert time.perf_counter() - start < 0.5
            values = np.asarray(rate_value(curve.params, xs[:2]))
            assert values[0] == pytest.approx(1.0, rel=1e-9) and values[1] < 1e-9
            assert curve.nrmse < 1e-9

    def test_ap_prior_scale_in_closed_form(self, rng):
        xs = np.arange(10.0, 2000.0, 25.0)
        y = np.clip(0.5 * np.exp(-xs / 400.0) + rng.normal(0.0, 0.02, xs.size), 0.0, 1.0)
        curve = fit_rate(WindowedEstimates(xs, y, 25), RateKind.AP_PRIOR, 5000)
        unit = np.asarray(rate_value(RateParams(RateKind.AP_PRIOR, a=1.0, n_total=5000), xs))
        assert curve.params.a == pytest.approx(float(unit @ y) / float(unit @ unit), rel=1e-15)

    def test_no_least_squares_solver_runs(self, monkeypatch):
        # numpy's lstsq, which polyfit calls, is the largest first-use
        # memory cost on a fit's path; no family needs it
        def refuse(*args, **kwargs):
            raise AssertionError("least-squares solver called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for name, pts in _fit_corpus():
            for kind in RateKind:
                try:
                    fit_rate(pts, kind, 3000)
                except FitFailureError:
                    assert kind is RateKind.HYPERBOLIC, name

    def test_scan_memory_does_not_grow_with_the_prefix(self):
        # 4,000 windows, a 100,000-document prefix: the coarse grid alone
        # would be 257 x 4,000 float64 (8 MB) unblocked
        x, y = _window_series("decaying", 4000, seed=7)
        pts = WindowedEstimates(x, y, 25)
        fit_rate(pts, RateKind.EXPONENTIAL, 10**6)  # numpy's first-use caches
        tracemalloc.start()
        try:
            fit_rate(pts, RateKind.EXPONENTIAL, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
