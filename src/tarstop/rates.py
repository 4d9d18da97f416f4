"""Relevance-rate curves: evaluation, closed-form integrals, and fitting.

Four declining rate families model the probability of seeing a relevant
document at rank x:

  exponential   a * exp(b*x)                  (b <= 0 for decline)
  hyperbolic    a / (1 + b*c*x)**(1/b)        (0 <= b <= 1, c > 0;
                b -> 0 recovers exponential decay, b = 1 harmonic)
  power law     a * x**b                      (b <= 0 for decline)
  ap_prior      a * log(n/x) / Z,  Z = n*log(n) - log(n!)
                (a probability shape over ranks 1..n, scaled by a)

Each family has a closed-form integral over a rank interval, used as the
mean of the counting distribution downstream. Fitting minimizes squared
error between the curve and windowed relevance frequencies, with decline
enforced through smooth reparameterization so the returned parameter
variances stay meaningful.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.special import expit, gammaln

from .errors import (
    DegenerateDataError,
    FitFailureError,
    InsufficientDataError,
    UndefinedRangeError,
    ValidationError,
)

# Branch guards for the singular closed-form cases.
_HYP_B_ZERO = 1e-9
_HYP_B_ONE = 1e-9
_EXP_B_ZERO = 1e-12
_POW_B_NEG1 = 1e-12


class RateKind(enum.Enum):
    EXPONENTIAL = "exponential"
    HYPERBOLIC = "hyperbolic"
    POWER_LAW = "power"
    AP_PRIOR = "ap_prior"


@dataclass(frozen=True)
class RateParams:
    """Parameters of one rate family.

    Arity per kind: exponential (a, b); hyperbolic (a, b, c);
    power law (a, b); ap_prior (a, n_total).
    """

    kind: RateKind
    a: float
    b: float | None = None
    c: float | None = None
    n_total: int | None = None

    def __post_init__(self):
        if not self.a > 0:
            raise ValidationError(f"rate scale a must be > 0, got {self.a}")
        if self.kind is RateKind.HYPERBOLIC:
            if self.b is None or not 0.0 <= self.b <= 1.0:
                raise ValidationError(f"hyperbolic b must be in [0, 1], got {self.b}")
            if self.c is None or not self.c > 0:
                raise ValidationError(f"hyperbolic c must be > 0, got {self.c}")
        elif self.kind is RateKind.AP_PRIOR:
            if self.n_total is None or self.n_total < 2:
                raise ValidationError(
                    f"ap_prior needs n_total >= 2, got {self.n_total}"
                )
        elif self.b is None:
            raise ValidationError(f"{self.kind.value} params require b")

    def values(self) -> tuple[float, ...]:
        """Free parameters in canonical order (excludes the fixed n_total)."""
        if self.kind is RateKind.HYPERBOLIC:
            return (self.a, self.b, self.c)
        if self.kind is RateKind.AP_PRIOR:
            return (self.a,)
        return (self.a, self.b)


@dataclass(frozen=True)
class RateCurve:
    """A fitted rate: parameters, their variance estimates, and fit quality."""

    params: RateParams
    param_variance: tuple[float, ...]
    nrmse: float
    points_used: int

    def __post_init__(self):
        if len(self.param_variance) != len(self.params.values()):
            raise ValidationError(
                "param_variance arity does not match the parameter count"
            )
        if any(v < 0 for v in self.param_variance):
            raise ValidationError("parameter variances must be non-negative")
        if not math.isfinite(self.nrmse):
            raise ValidationError("nrmse must be finite")


@dataclass(frozen=True)
class WindowedEstimates:
    """Observed relevance frequency per window of consecutive ranks."""

    x: np.ndarray  # window center ranks, strictly increasing
    y: np.ndarray  # mean relevance per window, each in [0, 1]
    window_size: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 1:
            raise ValidationError("x and y must be 1-d arrays of equal length")
        if x.size > 1 and not np.all(np.diff(x) > 0):
            raise ValidationError("window centers must be strictly increasing")
        if y.size and (y.min() < 0 or y.max() > 1):
            raise ValidationError("window means must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.x.size)


def _ap_normalizer(n_total: int) -> float:
    # n*log(n) - log(n!) via log-gamma, safe for very large n.
    return n_total * math.log(n_total) - float(gammaln(n_total + 1))


def rate_value(params: RateParams, x) -> np.ndarray | float:
    """Evaluate the rate at rank position(s) x.

    For ap_prior, x must lie within [1, n_total]; the other families
    accept any non-negative position.
    """
    xs = np.asarray(x, dtype=float)
    kind = params.kind
    if kind is RateKind.EXPONENTIAL:
        out = params.a * np.exp(params.b * xs)
    elif kind is RateKind.POWER_LAW:
        out = params.a * np.power(xs, params.b)
    elif kind is RateKind.HYPERBOLIC:
        b, c = params.b, params.c
        if b < _HYP_B_ZERO:
            out = params.a * np.exp(-c * xs)
        else:
            # (1 + bcx)^(1/b) computed in log space to survive small b
            out = params.a * np.exp(-np.log1p(b * c * xs) / b)
    else:  # AP_PRIOR
        n = params.n_total
        if np.any(xs < 1) or np.any(xs > n):
            raise ValidationError(
                f"ap_prior rate is defined on [1, {n}]; got positions outside it"
            )
        out = params.a * np.log(n / xs) / _ap_normalizer(n)
    return out if isinstance(x, np.ndarray) else float(out)


def rate_integral(params: RateParams, i: float, j: float) -> float:
    """Closed-form integral of the rate over rank interval [i, j].

    This is the expected number of relevant documents between ranks i
    and j under the fitted curve, and the mean of the counting
    distribution built from it.
    """
    if i > j:
        raise ValueError(f"interval start {i} exceeds end {j}")
    if i < 1:
        raise ValueError(f"interval must start at rank >= 1, got {i}")
    if i == j:
        return 0.0
    kind = params.kind
    a = params.a
    if kind is RateKind.EXPONENTIAL:
        b = params.b
        if abs(b) < _EXP_B_ZERO:
            return a * (j - i)
        return a / b * (math.exp(b * j) - math.exp(b * i))
    if kind is RateKind.POWER_LAW:
        b = params.b
        if abs(b + 1.0) < _POW_B_NEG1:
            return a * math.log(j / i)
        e = b + 1.0
        return a / e * (j**e - i**e)
    if kind is RateKind.HYPERBOLIC:
        b, c = params.b, params.c
        if b < _HYP_B_ZERO:
            return a / c * (math.exp(-c * i) - math.exp(-c * j))
        if abs(b - 1.0) < _HYP_B_ONE:
            return a / c * (math.log1p(c * j) - math.log1p(c * i))
        e = 1.0 - 1.0 / b
        # antiderivative a/(c(b-1)) * (1+bcx)^(1-1/b), log-space power
        term_j = math.exp(e * math.log1p(b * c * j))
        term_i = math.exp(e * math.log1p(b * c * i))
        return a / (c * (b - 1.0)) * (term_j - term_i)
    # AP_PRIOR: antiderivative of log(n/x) is x*log(n/x) + x
    n = params.n_total
    if j > n:
        raise ValueError(f"ap_prior integral end {j} exceeds n_total {n}")
    upper = j * math.log(n / j) + j
    lower = i * math.log(n / i) + i
    return a * (upper - lower) / _ap_normalizer(n)


def window_estimates(labels, window_size: int) -> WindowedEstimates:
    """Average screened labels over consecutive non-overlapping windows.

    Each point sits at its window's center rank. A trailing partial
    window shorter than half the window size is dropped; otherwise it is
    averaged over its actual length.
    """
    if window_size < 1:
        raise ValidationError(f"window_size must be >= 1, got {window_size}")
    arr = np.asarray(labels, dtype=float)
    if arr.size < window_size:
        raise InsufficientDataError(
            f"need at least one full window ({window_size}), got {arr.size} labels"
        )
    full = arr.size // window_size
    end = full * window_size
    rem = arr.size - end
    # window w covers 1-based ranks w*window_size+1 .. (w+1)*window_size
    xs = np.arange(full) * window_size + (window_size + 1) / 2.0
    ys = arr[:end].reshape(full, window_size).mean(axis=1)
    if rem and rem >= window_size / 2.0:
        xs = np.append(xs, end + (rem + 1) / 2.0)
        ys = np.append(ys, arr[end:].mean())
    return WindowedEstimates(xs, ys, window_size)


def nrmse(curve: RateCurve, points: WindowedEstimates) -> float:
    """Root-mean-squared prediction error normalized by the observed range."""
    if len(points) < 2:
        raise InsufficientDataError("nrmse needs at least 2 points")
    preds = np.asarray(rate_value(curve.params, points.x), dtype=float)
    return _nrmse_raw(preds, points.y)


def _nrmse_raw(preds: np.ndarray, y: np.ndarray) -> float:
    span = float(y.max() - y.min())
    if span <= 0.0:
        raise UndefinedRangeError("observed values are constant; range is zero")
    return float(np.sqrt(np.mean((preds - y) ** 2)) / span)


# --- fitting -----------------------------------------------------------
#
# Free parameters are optimized in a transformed space that encodes the
# decline constraints smoothly:
#   a = exp(u)            (a > 0, all kinds)
#   b = -exp(v)           (b < 0, exponential / power law)
#   b = sigmoid(w)        (0 < b < 1, hyperbolic)
#   c = exp(v)            (c > 0, hyperbolic)
# Variances are mapped back to natural space with the transform Jacobian.

_SIG_CLIP = 1e-12
_T_CLIP = 50.0  # keeps exp() finite when the minimizer probes extreme steps


def _natural(kind: RateKind, t: np.ndarray) -> tuple[float, ...]:
    t = np.clip(t, -_T_CLIP, _T_CLIP)
    if kind is RateKind.HYPERBOLIC:
        b = float(np.clip(expit(t[1]), _SIG_CLIP, 1.0 - _SIG_CLIP))
        return (math.exp(t[0]), b, math.exp(t[2]))
    if kind is RateKind.AP_PRIOR:
        return (math.exp(t[0]),)
    return (math.exp(t[0]), -math.exp(t[1]))


def _natural_jacobian(kind: RateKind, nat: tuple[float, ...]) -> np.ndarray:
    if kind is RateKind.HYPERBOLIC:
        a, b, c = nat
        return np.array([a, b * (1.0 - b), c])
    if kind is RateKind.AP_PRIOR:
        return np.array([nat[0]])
    a, b = nat
    return np.array([a, b])  # d(-exp(v))/dv = b; squared below anyway


def _params_from_natural(
    kind: RateKind, nat: tuple[float, ...], n_total: int
) -> RateParams:
    if kind is RateKind.HYPERBOLIC:
        return RateParams(kind, a=nat[0], b=nat[1], c=nat[2])
    if kind is RateKind.AP_PRIOR:
        return RateParams(kind, a=nat[0], n_total=n_total)
    return RateParams(kind, a=nat[0], b=nat[1])


def _decay_slope(x: np.ndarray, logy: np.ndarray) -> float:
    slope = float(np.polyfit(x, logy, 1)[0])
    return min(slope, -1e-6)


def _initial_guess(points: WindowedEstimates, kind: RateKind, n_total: int) -> np.ndarray:
    x, y = points.x, points.y
    pos = y > 0
    a0 = float(y.max())
    if kind is RateKind.EXPONENTIAL:
        b0 = _decay_slope(x[pos], np.log(y[pos])) if pos.sum() >= 2 else -1e-3
        return np.array([math.log(a0), math.log(-b0)])
    if kind is RateKind.POWER_LAW:
        b0 = _decay_slope(np.log(x[pos]), np.log(y[pos])) if pos.sum() >= 2 else -0.5
        b0 = max(b0, -10.0)
        return np.array([math.log(a0), math.log(-b0)])
    if kind is RateKind.HYPERBOLIC:
        return np.array([math.log(a0), 0.0, math.log(0.01)])
    # ap_prior is linear in its scale, so start from the exact solution
    unit = np.asarray(rate_value(RateParams(kind, a=1.0, n_total=n_total), x))
    denom = float(unit @ unit)
    a_star = float(unit @ y) / denom if denom > 0 else a0
    return np.array([math.log(max(a_star, 1e-12))])


def fit_rate(points: WindowedEstimates, kind: RateKind, n_total: int) -> RateCurve:
    """Fit one rate family to windowed observations by damped least squares.

    Returns the fitted curve with per-parameter variance estimates taken
    from the diagonal of the residual-scaled inverse approximate Hessian.
    A singular Hessian (or zero residual degrees of freedom) yields
    infinite sentinel variances rather than a fabricated small value.
    """
    m = len(points)
    if m < 3:
        raise InsufficientDataError(f"need >= 3 points to fit, got {m}")
    if not np.any(points.y > 0):
        raise DegenerateDataError("all window means are zero; nothing to fit")

    x, y = points.x, points.y

    def residual(t: np.ndarray) -> np.ndarray:
        nat = _natural(kind, t)
        params = _params_from_natural(kind, nat, n_total)
        return np.asarray(rate_value(params, x)) - y

    t0 = _initial_guess(points, kind, n_total)
    result = least_squares(residual, t0, method="lm", max_nfev=2000 * t0.size)
    if result.status <= 0:
        raise FitFailureError(f"least squares did not converge: {result.message}")

    nat = _natural(kind, result.x)
    params = _params_from_natural(kind, nat, n_total)

    n_params = t0.size
    dof = m - n_params
    variances: np.ndarray
    if dof <= 0:
        variances = np.full(n_params, np.inf)
    else:
        jtj = result.jac.T @ result.jac
        sigma2 = 2.0 * result.cost / dof
        try:
            cov_t = sigma2 * np.linalg.inv(jtj)
            if not np.all(np.isfinite(cov_t)):
                raise np.linalg.LinAlgError
            variances = np.diag(cov_t) * _natural_jacobian(kind, nat) ** 2
            variances = np.clip(variances, 0.0, None)
        except np.linalg.LinAlgError:
            variances = np.full(n_params, np.inf)

    preds = np.asarray(rate_value(params, x))
    fit_nrmse = _nrmse_raw(preds, y)
    return RateCurve(params, tuple(float(v) for v in variances), fit_nrmse, m)
