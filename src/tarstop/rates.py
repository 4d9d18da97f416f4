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

from .errors import (
    DegenerateDataError,
    FitFailureError,
    InsufficientDataError,
    UndefinedRangeError,
    ValidationError,
)
from .special import expit, log_gamma

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

    @classmethod
    def from_values(
        cls, kind: RateKind, values, n_total: int | None = None
    ) -> RateParams:
        """Inverse of ``values()``; ``n_total`` is kept for ap_prior only."""
        if kind is RateKind.HYPERBOLIC:
            a, b, c = values
            return cls(kind, a=a, b=b, c=c)
        if kind is RateKind.AP_PRIOR:
            (a,) = values
            return cls(kind, a=a, n_total=n_total)
        a, b = values
        return cls(kind, a=a, b=b)


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
    return n_total * math.log(n_total) - log_gamma(n_total + 1)


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
    _check_integral_interval(params.kind, params.n_total, i, j)
    return _integral(params.kind, params.n_total, i, j, params.a, params.b, params.c)


def _check_integral_interval(
    kind: RateKind, n_total: int | None, i: float, j: float
) -> None:
    """The interval checks of ``rate_integral``, shared by every point of
    a parameter grid."""
    if i > j:
        raise ValueError(f"interval start {i} exceeds end {j}")
    if i < 1:
        raise ValueError(f"interval must start at rank >= 1, got {i}")
    if kind is RateKind.AP_PRIOR and i < j and j > n_total:
        raise ValueError(f"ap_prior integral end {j} exceeds n_total {n_total}")


def _integral(
    kind: RateKind, n_total: int | None, i: float, j: float,
    a: float, b: float | None = None, c: float | None = None,
) -> float:
    """``rate_integral`` on raw parameter values that satisfy the family's
    constraints, over an interval ``_check_integral_interval`` accepts."""
    if i == j:
        return 0.0
    if kind is RateKind.EXPONENTIAL:
        if abs(b) < _EXP_B_ZERO:
            return a * (j - i)
        return a / b * (math.exp(b * j) - math.exp(b * i))
    if kind is RateKind.POWER_LAW:
        if abs(b + 1.0) < _POW_B_NEG1:
            return a * math.log(j / i)
        e = b + 1.0
        return a / e * (j**e - i**e)
    if kind is RateKind.HYPERBOLIC:
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
    upper = j * math.log(n_total / j) + j
    lower = i * math.log(n_total / i) + i
    return a * (upper - lower) / _ap_normalizer(n_total)


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
    return _nrmse_raw(preds - points.y, points.y)


def _nrmse_raw(residuals: np.ndarray, y: np.ndarray) -> float:
    span = float(y.max() - y.min())
    if span <= 0.0:
        raise UndefinedRangeError("observed values are constant; range is zero")
    return float(np.sqrt(np.mean(residuals ** 2)) / span)


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
    t = [min(max(v, -_T_CLIP), _T_CLIP) for v in t.tolist()]
    if kind is RateKind.HYPERBOLIC:
        b = min(max(expit(t[1]), _SIG_CLIP), 1.0 - _SIG_CLIP)
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


def _rate_jacobian(
    kind: RateKind, t: np.ndarray, nat: tuple[float, ...], f: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """d rate(x) / d t for the rate values f at transformed parameters t
    (natural values nat), one column per parameter. A coordinate that
    ``_natural`` clips does not move the rate, so its column is zero.

    Below ``_HYP_B_ZERO`` the hyperbolic rate is evaluated at its b -> 0
    limit, a * exp(-c x), but its slope in b is that limit's, c^2 x^2 / 2
    in log space, not zero: a zero column would make J^T J singular and
    leave every parameter of such a fit without a variance."""
    if kind is RateKind.AP_PRIOR:
        cols = [f]
    elif kind is RateKind.EXPONENTIAL:
        cols = [f, f * (nat[1] * x)]
    elif kind is RateKind.POWER_LAW:
        cols = [f, f * (nat[1] * np.log(x))]
    else:
        _a, b, c = nat
        cx = c * x
        if b < _HYP_B_ZERO:
            dlog_b = 0.5 * cx * cx
            dc = -cx
        else:
            bcx1 = 1.0 + b * cx
            dlog_b = np.log1p(b * cx) / (b * b) - cx / (b * bcx1)
            dc = -cx / bcx1
        db = dlog_b * (b * (1.0 - b))
        if b in (_SIG_CLIP, 1.0 - _SIG_CLIP):
            db = np.zeros_like(x)
        cols = [f, f * db, f * dc]
    jac = np.stack(cols, axis=1)
    jac[:, np.abs(t) > _T_CLIP] = 0.0
    return jac


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


def _fit_problem(points: WindowedEstimates, kind: RateKind, n_total: int):
    """Residual and Jacobian functions of the transformed parameters, and
    the starting point, for fitting ``kind`` to ``points``."""
    x, y = points.x, points.y

    def rate(t: np.ndarray) -> tuple[tuple[float, ...], np.ndarray]:
        nat = _natural(kind, t)
        return nat, np.asarray(rate_value(RateParams.from_values(kind, nat, n_total), x))

    def residual(t: np.ndarray) -> np.ndarray:
        return rate(t)[1] - y

    def jacobian(t: np.ndarray) -> np.ndarray:
        nat, f = rate(t)
        return _rate_jacobian(kind, t, nat, f, x)

    return residual, jacobian, _initial_guess(points, kind, n_total)


# --- Levenberg-Marquardt ---------------------------------------------------
#
# A port of MINPACK's lmder (More, "The Levenberg-Marquardt algorithm:
# implementation and theory", 1978) in its mode 1: variables scaled by the
# running maximum of the Jacobian's column norms, initial step bound
# factor * |D t0| with factor = 100, and ftol = xtol = gtol = 1e-8. Every
# sum runs in MINPACK's order, left to right, so the fit does not depend on
# the BLAS or on the Python version. With at most three parameters the
# n-sized work is plain Python; only the m-sized work is numpy.

_LM_TOL = 1e-8
_LM_FACTOR = 100.0
_EPS = float(np.finfo(float).eps)
_DWARF = float(np.finfo(float).tiny)
_RDWARF = 3.834e-20  # enorm's bounds for squaring without under- or overflow
_RGIANT = 1.304e19


def _dot(u, v) -> float:
    """Left-to-right sum of u[i] * v[i]."""
    if isinstance(u, np.ndarray):
        return float((u * v).cumsum()[-1])
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def _enorm(v) -> float:
    """MINPACK's Euclidean norm: a plain sum of squares for moderate
    components, rescaled sums for tiny and huge ones."""
    agiant = _RGIANT / len(v)
    if isinstance(v, np.ndarray):
        sq = v * v
        # squaring rounds monotonically, so these bounds on the squares
        # put every component strictly inside (_RDWARF, agiant)
        if sq.min() > _RDWARF * _RDWARF and sq.max() < agiant * agiant:
            return math.sqrt(sq.cumsum()[-1])
        v = v.tolist()
    s1 = s2 = s3 = x1max = x3max = 0.0
    for xabs in map(abs, v):
        if _RDWARF < xabs < agiant:
            s2 += xabs * xabs
        elif xabs > _RDWARF:
            if xabs > x1max:
                s1 = 1.0 + s1 * (x1max / xabs) * (x1max / xabs)
                x1max = xabs
            else:
                s1 += (xabs / x1max) * (xabs / x1max)
        elif xabs > x3max:
            s3 = 1.0 + s3 * (x3max / xabs) * (x3max / xabs)
            x3max = xabs
        elif xabs != 0.0:
            s3 += (xabs / x3max) * (xabs / x3max)
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _qrfac(a: np.ndarray) -> tuple[list[int], list[float], list[float]]:
    """Householder QR with column pivoting of the (m, n) matrix a.T, in place
    on a's rows. Returns the pivot order, R's diagonal and a's row norms."""
    n = a.shape[0]
    acnorm = [_enorm(row) for row in a]
    rdiag = list(acnorm)
    wa = list(acnorm)
    ipvt = list(range(n))
    for j in range(n):
        kmax = j
        for k in range(j, n):
            if rdiag[k] > rdiag[kmax]:
                kmax = k
        if kmax != j:
            a[[j, kmax]] = a[[kmax, j]]
            rdiag[kmax], wa[kmax] = rdiag[j], wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        ajnorm = _enorm(a[j, j:])
        if ajnorm != 0.0:
            if a[j, j] < 0.0:
                ajnorm = -ajnorm
            a[j, j:] /= ajnorm
            a[j, j] += 1.0
            for k in range(j + 1, n):
                temp = _dot(a[j, j:], a[k, j:]) / a[j, j]
                a[k, j:] -= temp * a[j, j:]
                if rdiag[k] != 0.0:
                    temp = a[k, j] / rdiag[k]
                    rdiag[k] *= math.sqrt(max(0.0, 1.0 - temp * temp))
                    if 0.05 * (rdiag[k] / wa[k]) * (rdiag[k] / wa[k]) <= _EPS:
                        rdiag[k] = wa[k] = _enorm(a[k, j + 1:])
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _qrsolv(r: list[list[float]], ipvt: list[int], diag: list[float], qtb: list[float]):
    """Least-squares solution of [R P^T; D] x = [Q^T b; 0] by Givens rotations.
    Leaves the rotated triangle S transposed in r's strict lower part and
    returns x with S's diagonal."""
    n = len(diag)
    x = [0.0] * n
    wa = list(qtb)
    for j in range(n):
        for i in range(j, n):
            r[i][j] = r[j][i]
        x[j] = r[j][j]
    sdiag = [0.0] * n
    for j in range(n):
        if diag[ipvt[j]] != 0.0:
            sdiag[j:] = [0.0] * (n - j)
            sdiag[j] = diag[ipvt[j]]
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                if abs(r[k][k]) < abs(sdiag[k]):
                    cotan = r[k][k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * cotan * cotan)
                    cos = sin * cotan
                else:
                    tan = sdiag[k] / r[k][k]
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * tan * tan)
                    sin = cos * tan
                r[k][k] = cos * r[k][k] + sin * sdiag[k]
                wa[k], qtbpj = cos * wa[k] + sin * qtbpj, -sin * wa[k] + cos * qtbpj
                for i in range(k + 1, n):
                    r[i][k], sdiag[i] = (
                        cos * r[i][k] + sin * sdiag[i], -sin * r[i][k] + cos * sdiag[i]
                    )
        sdiag[j] = r[j][j]
        r[j][j] = x[j]
    nsing = next((j for j in range(n) if sdiag[j] == 0.0), n)
    wa[nsing:] = [0.0] * (n - nsing)
    for j in reversed(range(nsing)):
        s = _dot([r[i][j] for i in range(j + 1, nsing)], wa[j + 1:nsing])
        wa[j] = (wa[j] - s) / sdiag[j]
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x, sdiag


def _lmpar(r, ipvt, diag, qtb, delta: float, par: float) -> tuple[float, list[float]]:
    """More's search for the damping par whose step x has |D x| close to
    delta. Returns (par, x); par is 0 when the Gauss-Newton step fits."""
    n = len(diag)
    nsing = next((j for j in range(n) if r[j][j] == 0.0), n)
    wa1 = list(qtb[:nsing]) + [0.0] * (n - nsing)
    for j in reversed(range(nsing)):
        wa1[j] /= r[j][j]
        for i in range(j):
            wa1[i] -= r[i][j] * wa1[j]
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]
    wa2 = [d * xj for d, xj in zip(diag, x)]
    dxnorm = _enorm(wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    # the Newton step gives a lower bound parl unless R is singular
    parl = 0.0
    if nsing == n:
        wa1 = [diag[l] * (wa2[l] / dxnorm) for l in ipvt]
        for j in range(n):
            s = _dot([r[i][j] for i in range(j)], wa1[:j])
            wa1[j] = (wa1[j] - s) / r[j][j]
        temp = _enorm(wa1)
        parl = ((fp / delta) / temp) / temp
    wa1 = [_dot([r[i][j] for i in range(j + 1)], qtb) / diag[ipvt[j]] for j in range(n)]
    gnorm = _enorm(wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        root = math.sqrt(par)
        x, sdiag = _qrsolv(r, ipvt, [root * d for d in diag], qtb)
        wa2 = [d * xj for d, xj in zip(diag, x)]
        dxnorm = _enorm(wa2)
        previous, fp = fp, dxnorm - delta
        if (
            abs(fp) <= 0.1 * delta
            or (parl == 0.0 and fp <= previous and previous < 0.0)
            or iteration == 10
        ):
            break
        # Newton correction
        wa1 = [diag[l] * (wa2[l] / dxnorm) for l in ipvt]
        for j in range(n):
            wa1[j] /= sdiag[j]
            for i in range(j + 1, n):
                wa1[i] -= r[i][j] * wa1[j]
        temp = _enorm(wa1)
        parc = ((fp / delta) / temp) / temp
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, x


def _levenberg_marquardt(residual, jacobian, t0: np.ndarray, max_nfev: int):
    """Minimize |residual(t)|^2 from t0 (MINPACK lmder, see above).

    Returns the solution and its residual vector. Raises FitFailureError
    when max_nfev residual evaluations pass without convergence.
    """
    n = t0.size
    t = np.array(t0, dtype=float)
    fvec = residual(t)
    nfev = 1
    fnorm = _enorm(fvec)
    par = 0.0
    first = True
    while True:
        a = np.array(jacobian(t).T)  # row j holds the Jacobian's column j
        ipvt, rdiag, acnorm = _qrfac(a)
        if first:
            diag = [c if c != 0.0 else 1.0 for c in acnorm]
            xnorm = _enorm([d * v for d, v in zip(diag, t.tolist())])
            delta = _LM_FACTOR * xnorm if xnorm != 0.0 else _LM_FACTOR
        # Q^T fvec, and R into an n x n list with its diagonal restored
        wa4 = fvec.copy()
        qtf = []
        for j in range(n):
            if a[j, j] != 0.0:
                temp = -_dot(a[j, j:], wa4[j:]) / a[j, j]
                wa4[j:] += a[j, j:] * temp
            a[j, j] = rdiag[j]
            qtf.append(float(wa4[j]))
        r = a[:, :n].T.tolist()
        # scaled gradient norm
        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                l = ipvt[j]
                if acnorm[l] != 0.0:
                    s = _dot([r[i][j] for i in range(j + 1)], [q / fnorm for q in qtf])
                    gnorm = max(gnorm, abs(s / acnorm[l]))
        if gnorm <= _LM_TOL:
            return t, fvec
        diag = [max(d, c) for d, c in zip(diag, acnorm)]
        while True:
            par, step = _lmpar(r, ipvt, diag, qtf, delta, par)
            step = [-v for v in step]
            t_new = t + step
            pnorm = _enorm([d * v for d, v in zip(diag, step)])
            if first:
                delta = min(delta, pnorm)
            f_new = residual(t_new)
            nfev += 1
            fnorm1 = _enorm(f_new)
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                actred = 1.0 - (fnorm1 / fnorm) * (fnorm1 / fnorm)
            # predicted reduction and directional derivative, from R P^T step
            wa3 = [0.0] * n
            for j in range(n):
                for i in range(j + 1):
                    wa3[i] += r[i][j] * step[ipvt[j]]
            temp1 = _enorm(wa3) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            if ratio >= 1e-4:
                t, fvec, fnorm = t_new, f_new, fnorm1
                xnorm = _enorm([d * v for d, v in zip(diag, t.tolist())])
                first = False
            if (
                abs(actred) <= _LM_TOL and prered <= _LM_TOL and 0.5 * ratio <= 1.0
            ) or delta <= _LM_TOL * xnorm:
                return t, fvec
            if nfev >= max_nfev:
                raise FitFailureError(
                    f"Levenberg-Marquardt did not converge in {max_nfev} evaluations"
                )
            if ratio >= 1e-4:
                break


def fit_rate(points: WindowedEstimates, kind: RateKind, n_total: int) -> RateCurve:
    """Fit one rate family to windowed observations by damped least squares
    (Levenberg-Marquardt with analytic Jacobians).

    Returns the fitted curve with per-parameter variance estimates taken
    from the diagonal of the residual-scaled inverse approximate Hessian.
    A singular Hessian (or zero residual degrees of freedom) yields
    infinite sentinel variances rather than a fabricated small value.
    Raises FitFailureError when the fit does not converge within 2000
    residual evaluations per parameter.
    """
    m = len(points)
    if m < 3:
        raise InsufficientDataError(f"need >= 3 points to fit, got {m}")
    if not np.any(points.y > 0):
        raise DegenerateDataError("all window means are zero; nothing to fit")

    residual, jacobian, t0 = _fit_problem(points, kind, n_total)
    t, fvec = _levenberg_marquardt(residual, jacobian, t0, 2000 * t0.size)

    nat = _natural(kind, t)
    params = RateParams.from_values(kind, nat, n_total)

    n_params = t0.size
    dof = m - n_params
    variances: np.ndarray
    if dof <= 0:
        variances = np.full(n_params, np.inf)
    else:
        jac = jacobian(t)
        jtj = jac.T @ jac
        sigma2 = float(fvec @ fvec) / dof
        try:
            cov_t = sigma2 * np.linalg.inv(jtj)
            if not np.all(np.isfinite(cov_t)):
                raise np.linalg.LinAlgError
            variances = np.diag(cov_t) * _natural_jacobian(kind, nat) ** 2
            variances = np.clip(variances, 0.0, None)
        except np.linalg.LinAlgError:
            variances = np.full(n_params, np.inf)

    # fvec is the fitted curve's residuals, rate_value(params, x) - y
    fit_nrmse = _nrmse_raw(fvec, points.y)
    return RateCurve(params, tuple(float(v) for v in variances), fit_nrmse, m)
