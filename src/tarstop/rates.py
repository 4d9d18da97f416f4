"""Relevance-rate curves: evaluation, closed-form integrals, and fitting.

Four declining rate families model the probability of seeing a relevant
document at rank x:

  exponential   a * exp(b*x)                  (b <= 0 for decline)
  hyperbolic    a / (1 + b*c*x)**(1/b)        (0 <= b <= 1, c > 0;
                b -> 0 recovers exponential decay, b = 1 harmonic)
  power law     a * x**b                      (b <= 0 for decline)
  ap_prior      a * log(n/x) / Z,  Z = n*log(n) - log(n!)
                (a probability shape over ranks 1..n, scaled by a)

The family table ``_FAMILIES`` is the one place a family is defined: its
free parameters, each with the coordinate the fit moves it in, its rate,
the rate's closed-form integral over a rank interval (the mean of the
counting distribution downstream), its Jacobian columns, how it is
fitted and whether it reads n_total. Everything else reads the table.
Fitting minimizes squared error between the curve and windowed relevance
frequencies; each coordinate maps an unbounded value onto its parameter's
range, so the returned variances stay meaningful. Every rate is linear
in its scale a, and three families are fitted by projecting it out
(variable projection): ap_prior in closed form, the exponential and the
power law by a blocked grid scan over their one shape coordinate that
ends at the global least squares on the coordinate's clip range. Only the
hyperbolic runs Levenberg-Marquardt. ``RateParams`` takes any finite b
for the exponential and power law, so a synthetic curve may rise; only
the Cox grid holds them to b <= 0, the decline the fit keeps.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    FitFailureError,
    InsufficientDataError,
    UndefinedRangeError,
    ValidationError,
    is_integer,
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

    @property
    def family(self) -> _Family:
        """This family's record in the family table."""
        return _FAMILIES[self]


# --- the coordinates of the fit ---------------------------------------
#
# The fit moves each free parameter in an unbounded coordinate t that maps
# onto the parameter's range:
#   exp(t)       a > 0 (all kinds), c > 0 (hyperbolic)
#   -exp(t)      b < 0 (exponential, power law)
#   sigmoid(t)   0 < b < 1 (hyperbolic), clipped 1e-12 inside the ends

_SIG_CLIP = 1e-12
_T_CLIP = 50.0  # keeps exp() finite when the minimizer probes extreme steps


@dataclass(frozen=True)
class _Coordinate:
    natural: Callable[[float], float]  # the parameter at t, |t| <= _T_CLIP
    slope: Callable[[float], float]  # d parameter / d t, given the parameter
    admits: Callable  # the Cox grid's region, on a value or an array of them
    bound: str | None  # RateParams' range: admits() in words; None: any finite value
    clips: tuple[float, ...] = ()  # values natural() clips t to


_POSITIVE = _Coordinate(math.exp, lambda v: v, lambda v: v > 0, "> 0")
_FALLING = _Coordinate(lambda t: -math.exp(t), lambda v: v, lambda v: v <= 0, None)
_UNIT = _Coordinate(
    lambda t: min(max(1.0 / (1.0 + math.exp(-t)), _SIG_CLIP), 1.0 - _SIG_CLIP),
    lambda v: v * (1.0 - v),
    lambda v: (v >= 0.0) & (v <= 1.0), "in [0, 1]", (_SIG_CLIP, 1.0 - _SIG_CLIP),
)


# --- the family table -------------------------------------------------


def _ap_normalizer(n_total: int) -> float:
    # n*log(n) - log(n!) via log-gamma, safe for very large n.
    return n_total * math.log(n_total) - math.lgamma(n_total + 1)


def _ap_rate(x, n, a):
    return a * np.log(n / x) / _ap_normalizer(n)


def _hyperbolic_area(i, j, n, b, c):
    if b < _HYP_B_ZERO:
        return (math.exp(-c * i) - math.exp(-c * j)) / c
    if abs(b - 1.0) < _HYP_B_ONE:
        return (math.log1p(c * j) - math.log1p(c * i)) / c
    e = 1.0 - 1.0 / b
    # antiderivative (1+bcx)^(1-1/b) / (c(b-1)), log-space power
    term_j = math.exp(e * math.log1p(b * c * j))
    term_i = math.exp(e * math.log1p(b * c * i))
    return (term_j - term_i) / (c * (b - 1.0))


def _hyperbolic_jacobian(x, f, a, b, c):
    """Below ``_HYP_B_ZERO`` the hyperbolic rate is evaluated at its b -> 0
    limit, a * exp(-c x), but its slope in b is that limit's, c^2 x^2 / 2
    in log space, not zero: a zero column would make J^T J singular and
    leave every parameter of such a fit without a variance."""
    cx = c * x
    if b < _HYP_B_ZERO:
        dlog_b = 0.5 * cx * cx
        dc = -cx
    else:
        bcx1 = 1.0 + b * cx
        dlog_b = np.log1p(b * cx) / (b * b) - cx / (b * bcx1)
        dc = -cx / bcx1
    return [f, f * (dlog_b * (b * (1.0 - b))), f * dc]


@dataclass(frozen=True, eq=False)
class _Family:
    """One rate family; its closed forms take values that meet its constraints."""

    kind: RateKind
    params: dict[str, _Coordinate]  # free parameters, in canonical order
    rate: Callable  # (x, n_total, *values) -> the rate at positions x
    area: Callable  # (i, j, n_total, *values but a) -> the integral over [i, j],
    # i < j, at a = 1; every rate is linear in a
    jacobian: Callable  # (x, rate at x, *values) -> d rate / d t, one column each
    solve: Callable  # (window centers, window means, n_total, residual, jacobian)
    # -> the fitted t, the least squares of residual(t)
    reads_n_total: bool = False

    def check(self, values, n_total, x: np.ndarray | None = None) -> None:
        """``RateParams``' checks: each free value in order, then n_total;
        and, given positions x, that the rate is defined there."""
        name = self.kind.value
        for (key, coord), v in zip(self.params.items(), values):
            label = "rate scale a" if key == "a" else f"{name} {key}"
            if coord.bound is None:
                if v is None:
                    raise ValidationError(f"{name} params require {key}")
            elif v is None or not coord.admits(v):
                raise ValidationError(f"{label} must be {coord.bound}, got {v}")
            if not math.isfinite(v):
                raise ValidationError(f"{label} must be finite, got {v}")
        if not self.reads_n_total:
            return
        if not (n_total is None or is_integer(n_total)):
            raise ValidationError(f"{name} n_total must be an integer, got {n_total!r}")
        if n_total is None or n_total < 2:
            raise ValidationError(f"{name} needs n_total >= 2, got {n_total}")
        if x is not None and (np.any(x < 1) or np.any(x > n_total)):
            raise ValidationError(
                f"{name} rate is defined on [1, {n_total}]; got positions outside it"
            )

    def check_interval(self, n_total: int | None, i: float, j: float) -> None:
        """The interval checks of ``rate_integral``."""
        if math.isnan(i) or math.isnan(j):
            raise ValueError(f"interval ends must be numbers, got [{i}, {j}]")
        if i > j:
            raise ValueError(f"interval start {i} exceeds end {j}")
        if i < 1:
            raise ValueError(f"interval must start at rank >= 1, got {i}")
        if self.reads_n_total and i < j and j > n_total:
            raise ValueError(f"{self.kind.value} integral end {j} exceeds n_total {n_total}")

    def integral(self, i: float, j: float, n_total: int | None, values) -> float:
        """``rate_integral`` on raw values, over an interval it accepts."""
        a, *shape = values
        return 0.0 if i == j else a * self.area(i, j, n_total, *shape)

    def admits(self, points: np.ndarray) -> np.ndarray:
        """Mask of the Cox grid's points (columns, a row per free parameter)
        inside every coordinate's range."""
        return np.logical_and.reduce([c.admits(v) for c, v in zip(self.params.values(), points)])


_FAMILIES = {family.kind: family for family in (
    _Family(
        RateKind.EXPONENTIAL, {"a": _POSITIVE, "b": _FALLING},
        rate=lambda x, n, a, b: a * np.exp(b * x),
        area=lambda i, j, n, b: j - i if abs(b) < _EXP_B_ZERO
        else (math.exp(b * j) - math.exp(b * i)) / b,
        jacobian=lambda x, f, a, b: [f, f * (b * x)],
        solve=lambda x, y, n, *problem: _scan_decline(x, y),
    ),
    _Family(
        RateKind.HYPERBOLIC, {"a": _POSITIVE, "b": _UNIT, "c": _POSITIVE},
        # (1 + bcx)^(1/b) computed in log space to survive small b
        rate=lambda x, n, a, b, c: a * np.exp(-c * x) if b < _HYP_B_ZERO
        else a * np.exp(-np.log1p(b * c * x) / b),
        area=_hyperbolic_area,
        jacobian=_hyperbolic_jacobian,
        solve=lambda x, y, n, residual, jacobian: _levenberg_marquardt(
            residual, jacobian, _hyperbolic_start(y), _LM_BUDGET
        )[0],
    ),
    _Family(
        RateKind.POWER_LAW, {"a": _POSITIVE, "b": _FALLING},
        rate=lambda x, n, a, b: a * np.power(x, b),
        area=lambda i, j, n, b: math.log(j / i) if abs(b + 1.0) < _POW_B_NEG1
        else (j ** (b + 1.0) - i ** (b + 1.0)) / (b + 1.0),
        jacobian=lambda x, f, a, b: [f, f * (b * np.log(x))],
        solve=lambda x, y, n, *problem: _scan_decline(np.log(x), y),
    ),
    _Family(
        RateKind.AP_PRIOR, {"a": _POSITIVE},
        rate=_ap_rate,
        # x*log(n/x) + x is an antiderivative of log(n/x)
        area=lambda i, j, n: (
            (j * math.log(n / j) + j) - (i * math.log(n / i) + i)
        ) / _ap_normalizer(n),
        jacobian=lambda x, f, a: [f],
        solve=lambda x, y, n, *problem: [_log_scale(_ap_rate(x, n, 1.0), y)],
        reads_n_total=True,
    ),
)}


@dataclass(frozen=True)
class RateParams:
    """Parameters of one rate family, checked by its record on construction.

    Free parameters per kind: exponential and power law (a, b); hyperbolic
    (a, b, c); ap_prior (a), with the fixed collection size n_total.
    """

    kind: RateKind
    a: float
    b: float | None = None
    c: float | None = None
    n_total: int | None = None

    def __post_init__(self):
        self.kind.family.check(self.values(), self.n_total)

    def values(self) -> tuple[float, ...]:
        """Free parameters in canonical order (excludes the fixed n_total)."""
        return tuple(getattr(self, key) for key in self.kind.family.params)

    @classmethod
    def from_values(
        cls, kind: RateKind, values, n_total: int | None = None
    ) -> RateParams:
        """Inverse of ``values()``; ``n_total`` is kept for ap_prior only."""
        n_total = n_total if kind.family.reads_n_total else None
        return cls(kind, **dict(zip(kind.family.params, values, strict=True)), n_total=n_total)


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


def rate_value(params: RateParams, x) -> np.ndarray | float:
    """Evaluate the rate at rank position(s) x.

    For ap_prior, x must lie within [1, n_total]; the other families
    accept any non-negative position.
    """
    xs = np.asarray(x, dtype=float)
    family = params.kind.family
    family.check((), params.n_total, xs)
    out = family.rate(xs, params.n_total, *params.values())
    return out if isinstance(x, np.ndarray) else float(out)


def rate_integral(params: RateParams, i: float, j: float) -> float:
    """Closed-form integral of the rate over rank interval [i, j].

    This is the expected number of relevant documents between ranks i
    and j under the fitted curve, and the mean of the counting
    distribution built from it.
    """
    family = params.kind.family
    family.check_interval(params.n_total, i, j)
    return family.integral(i, j, params.n_total, params.values())


def window_estimates(labels, window_size: int) -> WindowedEstimates:
    """Average screened labels over consecutive non-overlapping windows.

    Each point sits at its window's center rank. A trailing partial
    window shorter than half the window size is dropped; otherwise it is
    averaged over its actual length.
    """
    if not is_integer(window_size):
        raise ValidationError(f"window_size must be an integer, got {window_size!r}")
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


def _natural(kind: RateKind, t: np.ndarray) -> tuple[float, ...]:
    t = [min(max(v, -_T_CLIP), _T_CLIP) for v in t.tolist()]
    return tuple(coord.natural(v) for coord, v in zip(kind.family.params.values(), t))


def _fit_problem(points: WindowedEstimates, kind: RateKind, n_total: int):
    """Residual and Jacobian functions of the transformed parameters for
    fitting ``kind`` to ``points``. The inputs are checked here, once: the
    coordinates keep every value in range. A coordinate that ``_natural``
    clips does not move the rate, so its Jacobian column is zero."""
    family = kind.family
    coords = tuple(family.params.values())
    x, y = points.x, points.y
    family.check((), n_total, x)

    def residual(t: np.ndarray) -> np.ndarray:
        return family.rate(x, n_total, *_natural(kind, t)) - y

    def jacobian(t: np.ndarray) -> np.ndarray:
        nat = _natural(kind, t)
        jac = np.stack(family.jacobian(x, family.rate(x, n_total, *nat), *nat), axis=1)
        jac[:, [
            abs(tv) > _T_CLIP or v in coord.clips
            for tv, v, coord in zip(t.tolist(), nat, coords)
        ]] = 0.0
        return jac

    return residual, jacobian


# --- variable projection -----------------------------------------------
#
# Every rate is linear in its scale, a * g(x; shape), so at a fixed shape
# the least squares a is g.y / g.g (variable projection: Golub & Pereyra,
# SIAM J. Numer. Anal. 1973; Kaufman, BIT 1975). ap_prior has no shape
# parameter and takes that a in closed form. The exponential and the
# power law are both a * exp(b u), in u = x and u = log x, and their
# squared error profiled over a is a function of s = log(-b) alone, which
# ``_scan_decline`` searches over the whole clip range |s| <= 50 for its
# global minimum; a is held to |log a| <= 50 at every s, a least squares
# on an interval, so the minimum is the one on both coordinates' ranges.
# Each shape row is scaled to 1 at the first window, exp(b (u - u1)), and
# its scale carries the factor exp(b u1): then no row underflows as a
# whole and g.g >= 1, where unscaled rows sink into denormals and the
# profile grows spurious minima. A profile may have several basins whose
# depths a coarse grid cannot tell apart, so the lowest few are refined.
# The rows are evaluated in blocks of at most ``_BLOCK_ELEMENTS``, so the
# scan's memory does not grow with the prefix.

# Elements of one block of rows, here and in the count estimator's sums:
# more is faster but holds more memory. 2**13 float64 elements are 64 KiB,
# under the 128 KiB mmap threshold the CLI pins, so blocks reuse the heap.
_BLOCK_ELEMENTS = 2**13
_SCAN_POINTS = 257  # coarse grid over |s| <= _T_CLIP, 0.39 apart
_REFINED = 4  # lowest local minima of the coarse grid that are refined
_ZOOM_POINTS = 17  # points across each bracket in a refinement round
_ZOOM_ROUNDS = 4  # each narrows a bracket 8-fold, from 0.78


def _log_scale(g: np.ndarray, y: np.ndarray) -> float:
    """log a of the least squares a * g to y, held in the clip range."""
    a = float(g @ y) / float(g @ g)
    return min(max(math.log(a), -_T_CLIP), _T_CLIP) if a > 0.0 else -_T_CLIP


def _profile(s: np.ndarray, u: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared error of the best a * exp(b u) to y at each s = log(-b),
    with log a held in the clip range, and the least squares scale of the
    scaled row exp(b (u - u1)) that gives it."""
    rows = max(1, _BLOCK_ELEMENTS // u.size)
    du = u - u[0]
    sse, scale = np.empty(s.size), np.empty(s.size)
    for first in range(0, s.size, rows):
        b = -np.exp(s[first:first + rows])
        g = np.exp(np.multiply.outer(b, du))
        # a = scale * exp(-b u1); the clip on log a bounds the scale
        shift = b * u[0]
        with np.errstate(over="ignore"):  # an infinite bound holds nothing
            lo, hi = np.exp(shift - _T_CLIP), np.exp(shift + _T_CLIP)
        best = np.clip((g @ y) / np.einsum("ij,ij->i", g, g), lo, hi)
        g *= best[:, None]
        g -= y
        sse[first:first + rows] = np.einsum("ij,ij->i", g, g)
        scale[first:first + rows] = best
    return sse, scale


def _scan_decline(u: np.ndarray, y: np.ndarray) -> list[float]:
    """The fitted t = (log a, s) of a * exp(-e^s u) to y: the global least
    squares on the clip range. A coarse grid over s is scanned; each of its
    lowest few local minima is bracketed by its neighbours and refined by
    rounds of finer grids across the bracket, and then by the vertex of
    the parabola through the last round's lowest point and its neighbours.
    The lowest point seen wins."""
    grid = np.linspace(-_T_CLIP, _T_CLIP, _SCAN_POINTS)
    seen = [(grid, *_profile(grid, u, y))]
    sse = seen[0][1]
    # a local minimum is below its left neighbour and not above its right one
    padded = np.r_[np.inf, sse, np.inf]
    lows = np.flatnonzero((sse < padded[:-2]) & (sse <= padded[2:]))
    lows = lows[np.argsort(sse[lows], kind="stable")[:_REFINED]]
    lo, hi = grid[np.maximum(lows - 1, 0)], grid[np.minimum(lows + 1, grid.size - 1)]
    rows = np.arange(lows.size)
    for _ in range(_ZOOM_ROUNDS):
        points = np.linspace(lo, hi, _ZOOM_POINTS, axis=1)
        seen.append((points.ravel(), *_profile(points.ravel(), u, y)))
        values = seen[-1][1].reshape(points.shape)
        at = values.argmin(axis=1)
        step = (hi - lo) / (_ZOOM_POINTS - 1)
        lo = points[rows, np.maximum(at - 1, 0)]
        hi = points[rows, np.minimum(at + 1, _ZOOM_POINTS - 1)]
    inner = rows[(at > 0) & (at < _ZOOM_POINTS - 1)]
    left, mid, right = (values[inner, at[inner] + d] for d in (-1, 0, 1))
    bend = left - 2.0 * mid + right
    offset = np.divide(left - right, bend, out=np.zeros(inner.size), where=bend > 0.0)
    vertex = points[inner, at[inner]] + 0.5 * step[inner] * offset
    seen.append((vertex, *_profile(vertex, u, y)))
    s, sse, scale = (np.concatenate(parts) for parts in zip(*seen))
    best = int(np.argmin(sse))
    if scale[best] == 0.0:  # no relevance where the curve is, and a bound underflowed
        return [-_T_CLIP, float(s[best])]
    log_a = math.log(scale[best]) + math.exp(s[best]) * float(u[0])
    return [min(max(log_a, -_T_CLIP), _T_CLIP), float(s[best])]


# --- Levenberg-Marquardt ---------------------------------------------------
#
# More's trust-region Levenberg-Marquardt method ("The Levenberg-Marquardt
# algorithm: implementation and theory", LNM 630, 1978), with MINPACK
# lmder's mode-1 settings: variables scaled by D, the running maximum of the
# Jacobian's column norms; initial step bound factor * |D t0| with
# factor = 100; ftol = xtol = gtol = 1e-8; and lmder's rules on the ratio of
# actual to predicted reduction. It fits the hyperbolic only. With three
# parameters it works on the normal equations: each iteration forms J^T J
# and J^T f once, and each step solves (J^T J + par D^2) p = -J^T f.
# Against MINPACK itself, on the tests' corpus of 120 hyperbolic fits, the
# cost is within a relative 1e-7 where the NRMSE is at most 0.2 and within
# 1e-3 elsewhere, and the parameters agree within 1e-4 where
# cond(J^T J) <= 1e8; beyond that, on a flat valley or a ridge, the two may
# stop at different points of nearly equal cost.
# Plain norms cannot overflow: ``_natural`` clips every coordinate to
# |t| <= 50, so no rate, residual or Jacobian entry exceeds about 1e30.

_LM_TOL = 1e-8
_LM_FACTOR = 100.0
_LM_BUDGET = 6000  # residual evaluations, 2000 per hyperbolic parameter
_EPS = float(np.finfo(float).eps)
_DWARF = float(np.finfo(float).tiny)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve a x = b for a symmetric a with a positive diagonal, and say
    whether a was exactly singular: then eps times its trace is added to its
    diagonal. a is scaled to a unit diagonal first, so that a column of J
    far shorter than the others keeps its digits."""
    s = np.sqrt(np.diag(a))
    a = a / np.outer(s, s)
    try:
        return np.linalg.solve(a, b / s) / s, False
    except np.linalg.LinAlgError:
        return np.linalg.solve(a + _EPS * np.trace(a) * np.eye(s.size), b / s) / s, True


def _inverse_form(a: np.ndarray, v: np.ndarray) -> float:
    """v^T a^-1 v in magnitude: where a is nearly singular the form is huge,
    and rounding may give it either sign."""
    return abs(float(v @ _solve(a, v)[0]))


def _lmpar(jtj: np.ndarray, g: np.ndarray, diag: np.ndarray, delta: float, par: float):
    """More's search for the damping par whose step p, the solution of
    (J^T J + par D^2) p = -g with g = J^T f, has |D p| within a tenth of
    delta. Returns (par, p); par is 0 when the Gauss-Newton step fits. A
    coordinate whose column of J is zero, one that ``_natural`` clips, is
    held still."""
    step = np.zeros(g.size)
    free = np.diag(jtj) > 0.0
    a, g, d = jtj[np.ix_(free, free)], g[free], diag[free]
    x, singular = _solve(a, g)
    dxnorm = _norm(d * x)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        step[free] = -x
        return 0.0, step
    # the Newton step gives a lower bound parl unless J^T J is singular
    parl = 0.0
    if not singular and free.all():
        parl = fp / delta / _inverse_form(a, d * d * x / dxnorm)
    gnorm = _norm(g / d)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        damped = a + np.diag(par * d * d)
        x = _solve(damped, g)[0]
        dxnorm = _norm(d * x)
        previous, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= previous < 0.0) or iteration == 10:
            break
        # Newton correction
        parc = fp / delta / _inverse_form(damped, d * d * x / dxnorm)
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    step[free] = -x
    return par, step


def _hyperbolic_start(y: np.ndarray) -> np.ndarray:
    """LM's start for the hyperbolic: a at the largest window mean, b = 1/2,
    c = 0.01."""
    return np.array([math.log(float(y.max())), 0.0, math.log(0.01)])


def _levenberg_marquardt(residual, jacobian, t0: np.ndarray, max_nfev: int):
    """Minimize |residual(t)|^2 from t0 (More's method, see above).

    Returns the solution and its residual vector. Raises FitFailureError
    when max_nfev residual evaluations pass without convergence.
    """
    t = np.array(t0, dtype=float)
    fvec = residual(t)
    nfev = 1
    fnorm = _norm(fvec)
    par = 0.0
    first = True
    while True:
        jac = jacobian(t)
        jtj, g = jac.T @ jac, jac.T @ fvec
        acnorm = np.sqrt(np.diag(jtj))
        if first:
            diag = np.where(acnorm > 0.0, acnorm, 1.0)
            xnorm = _norm(diag * t)
            delta = _LM_FACTOR * xnorm if xnorm != 0.0 else _LM_FACTOR
        # gtol bounds the largest cosine between f and a column of J
        cols = acnorm > 0.0
        if fnorm == 0.0 or np.max(np.abs(g[cols]) / acnorm[cols], initial=0.0) <= _LM_TOL * fnorm:
            return t, fvec
        diag = np.maximum(diag, acnorm)
        while True:
            par, step = _lmpar(jtj, g, diag, delta, par)
            t_new = t + step
            pnorm = _norm(diag * step)
            if first:
                delta = min(delta, pnorm)
            f_new = residual(t_new)
            nfev += 1
            fnorm1 = _norm(f_new)
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                actred = 1.0 - (fnorm1 / fnorm) * (fnorm1 / fnorm)
            # predicted reduction and directional derivative
            temp1 = _norm(jac @ step) / fnorm
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
                xnorm = _norm(diag * t)
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
    """Fit one rate family to windowed observations by least squares.

    ap_prior takes its scale in closed form; the exponential and the
    power law take the global minimum of their profiled error over the
    clip range (``_scan_decline``); the hyperbolic runs More's
    Levenberg-Marquardt method with analytic Jacobians, in lmder's mode-1
    settings, which agrees with MINPACK's lmder within the corpus
    tolerances stated above, not bit for bit.

    Returns the fitted curve with per-parameter variance estimates taken
    from the diagonal of the residual-scaled inverse approximate Hessian
    at the solution. A singular Hessian (or zero residual degrees of
    freedom) yields infinite sentinel variances rather than a fabricated
    small value. Raises FitFailureError when a hyperbolic fit does not
    converge within 6000 residual evaluations.
    """
    m = len(points)
    if m < 3:
        raise InsufficientDataError(f"need >= 3 points to fit, got {m}")
    if not np.any(points.y > 0):
        raise DegenerateDataError("all window means are zero; nothing to fit")

    residual, jacobian = _fit_problem(points, kind, n_total)
    t = np.array(kind.family.solve(points.x, points.y, n_total, residual, jacobian))
    fvec = residual(t)

    nat = _natural(kind, t)
    params = RateParams.from_values(kind, nat, n_total)

    n_params = t.size
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
            slopes = [c.slope(v) for c, v in zip(kind.family.params.values(), nat)]
            variances = np.diag(cov_t) * np.array(slopes) ** 2
            variances = np.clip(variances, 0.0, None)
        except np.linalg.LinAlgError:
            variances = np.full(n_params, np.inf)

    # fvec is the fitted curve's residuals, rate_value(params, x) - y
    fit_nrmse = _nrmse_raw(fvec, points.y)
    return RateCurve(params, tuple(float(v) for v in variances), fit_nrmse, m)
