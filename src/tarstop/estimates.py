"""Counting distributions over unscreened rank intervals.

A fitted rate curve implies a distribution for the number of relevant
documents between two ranks. Two variants:

  * Poisson with a fixed mean (the curve's interval integral), and
  * a parameter-uncertainty mixture: the Poisson mean is integrated over
    a normal distribution on the fitted parameters (truncated at three
    standard deviations, Simpson-weighted, invalid parameter combinations
    dropped), giving an over-dispersed count distribution.

Both expose the smallest count m whose cumulative probability reaches a
requested confidence level; the stopping rule adds that bound to the
relevant documents already seen.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DegenerateDistributionError, ValidationError
from .rates import RateCurve, RateKind, RateParams, rate_integral


class ProcessKind(enum.Enum):
    INHOMOGENEOUS_POISSON = "ip"
    COX = "cox"


@dataclass(frozen=True)
class RemainingEstimate:
    """Distribution summary for the relevant-count in a rank interval."""

    interval: tuple[int, int]
    lambda_mass: float  # distribution mean (interval integral or its mixture mean)
    upper_bound: int  # smallest m with CDF(m) >= confidence
    confidence: float
    fallback: bool = False  # mixture collapsed to the fixed-mean estimate


def poisson_pmf(mean: float, m: int) -> float:
    """P(N = m) for a Poisson with the given mean, computed in log space."""
    if mean < 0 or not math.isfinite(mean):
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if mean == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(-mean + m * math.log(mean) - float(gammaln(m + 1)))


# Longest count array a quantile search may allocate (32 MiB of float64).
# A wild fit can imply a mass of 1e13 or more; it fails cleanly instead.
_MAX_COUNTS = 2**22


def _summation_cap(mean: float) -> int:
    return _bounded_cap(int(mean + 20.0 * math.sqrt(mean) + 100.0))


def _bounded_cap(cap: int) -> int:
    if cap + 1 > _MAX_COUNTS:
        raise DegenerateDistributionError(
            f"count bound would need {cap + 1} terms, over the {_MAX_COUNTS} limit"
        )
    return cap


def _mixture_quantile(masses: np.ndarray, weights: np.ndarray, p: float) -> int:
    """Smallest m whose cumulative probability under a Poisson mixture reaches p.

    The mixture has one Poisson component per mass, weighted by the
    matching (normalized) weight. Direct summation of the mass functions;
    exactness matters at the small means typical near a stopping decision.
    Components are added one at a time over a shared count array, so the
    memory used grows with the count cap only. Raises
    DegenerateDistributionError when the sum would need more than 2**22
    terms.
    """
    cap = _summation_cap(float(masses.max()))
    while True:
        counts = np.arange(cap + 1, dtype=float)
        log_factorials = gammaln(counts + 1)
        mixture = np.zeros(counts.size)
        for w, mass in zip(weights.tolist(), masses.tolist()):
            if mass == 0.0:
                mixture[0] += w
            else:
                mixture += w * np.exp(-mass + counts * math.log(mass) - log_factorials)
        cdf = np.cumsum(mixture)
        if cdf[-1] >= p:
            return int(np.searchsorted(cdf, p, side="left"))
        cap = _bounded_cap(cap * 2)


def poisson_quantile(mean: float, p: float) -> int:
    """Smallest m whose cumulative Poisson probability reaches p.

    Raises DegenerateDistributionError when the sum would need more than
    2**22 terms.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {p}")
    if mean < 0 or not math.isfinite(mean):
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    return _mixture_quantile(np.array([mean]), np.array([1.0]), p)


def _check_interval(i: int, j: int) -> None:
    if i > j:
        raise ValueError(f"interval start {i} exceeds end {j}")


def estimate_remaining_ip(
    curve: RateCurve, i: int, j: int, p: float
) -> RemainingEstimate:
    """Fixed-mean Poisson estimate for the relevant-count in ranks [i, j]."""
    _check_interval(i, j)
    mass = rate_integral(curve.params, i, j)
    return RemainingEstimate((i, j), mass, poisson_quantile(mass, p), p)


# Largest Cox grid: a three-parameter grid of 161**3 points stays within the
# 2**22 elements the count estimator allows its arrays.
MAX_COX_GRID = 161


def _param_grids(
    curve: RateCurve, grid: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-parameter grid points and Simpson-times-density weights."""
    simpson = np.ones(grid)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    axes = []
    weights = []
    for mu, var in zip(curve.params.values(), curve.param_variance):
        if var == 0.0:
            axes.append(np.array([mu]))
            weights.append(np.array([1.0]))
            continue
        sd = math.sqrt(var)
        pts = np.linspace(mu - 3.0 * sd, mu + 3.0 * sd, grid)
        density = np.exp(-0.5 * ((pts - mu) / sd) ** 2)
        axes.append(pts)
        weights.append(simpson * density)
    return axes, weights


def _valid_points(kind: RateKind, points: np.ndarray) -> np.ndarray:
    """Mask of grid points (columns) that satisfy the family's constraints."""
    valid = points[0] > 0
    if kind is RateKind.HYPERBOLIC:
        return valid & (points[1] >= 0.0) & (points[1] <= 1.0) & (points[2] > 0)
    if kind is RateKind.AP_PRIOR:
        return valid
    return valid & (points[1] <= 0)  # decline constraint for exponential / power law


def estimate_remaining_cox(
    curve: RateCurve, i: int, j: int, p: float, grid: int = 9
) -> RemainingEstimate:
    """Parameter-uncertainty mixture estimate for the count in ranks [i, j].

    Falls back to the fixed-mean estimate (flagged) when any parameter
    variance is non-finite, i.e. the fit could not support an
    uncertainty model. Zero variances reproduce the fixed-mean result
    exactly.
    """
    if not (3 <= grid <= MAX_COX_GRID and grid % 2 == 1):
        raise ValidationError(
            f"grid must be an odd integer in [3, {MAX_COX_GRID}], got {grid}"
        )
    _check_interval(i, j)

    variances = curve.param_variance
    if any(not math.isfinite(v) for v in variances):
        ip = estimate_remaining_ip(curve, i, j, p)
        return RemainingEstimate(ip.interval, ip.lambda_mass, ip.upper_bound, p, fallback=True)
    if all(v == 0.0 for v in variances):
        return estimate_remaining_ip(curve, i, j, p)

    kind = curve.params.kind
    axes, axis_weights = _param_grids(curve, grid)
    # one column per grid point, in row-major order: the order of the weight sum
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    weights = np.multiply.reduce(np.meshgrid(*axis_weights, indexing="ij")).ravel()
    valid = _valid_points(kind, points)
    if not valid.any():
        raise DegenerateDistributionError(
            "every grid point violates the parameter constraints"
        )
    weights = weights[valid]
    weights = weights / weights.sum()

    # a scalar integral per point: an array form would use numpy's exp,
    # which differs from math.exp in the last bit for some arguments
    masses = np.array(
        [
            rate_integral(RateParams.from_values(kind, values, curve.params.n_total), i, j)
            for values in points[:, valid].T
        ]
    )
    mean_mass = float(weights @ masses)
    return RemainingEstimate((i, j), mean_mass, _mixture_quantile(masses, weights, p), p)
