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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistributionError, ValidationError, is_integer
from .rates import _BLOCK_ELEMENTS, RateCurve, rate_integral


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
    if not is_integer(m):
        raise ValueError(f"count must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if mean == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(-mean + m * math.log(mean) - math.lgamma(m + 1))


# log(k!) for k = 0, 1, ...; grown by doubling and never shrunk
_log_factorials = np.empty(0)


def log_factorials(size: int) -> np.ndarray:
    """Read-only view of log(k!) for k = 0..size-1."""
    global _log_factorials
    have = _log_factorials.size
    if size > have:
        grown = max(size, 2 * have)
        table = np.empty(grown)
        table[:have] = _log_factorials
        new = map(math.lgamma, range(have + 1, grown + 1))  # log(k!) = lgamma(k + 1)
        table[have:] = np.fromiter(new, float, grown - have)
        table.flags.writeable = False
        _log_factorials = table
    return _log_factorials[:size]


# Most counts a quantile search may sum (32 MiB of float64). A wild fit
# can imply a mass of 1e13 or more; it fails cleanly instead.
_MAX_COUNTS = 2**22


def _summation_cap(mean: float) -> int:
    cap = int(mean + 20.0 * math.sqrt(mean) + 100.0)
    if cap + 1 > _MAX_COUNTS:
        raise DegenerateDistributionError(
            f"count bound would need {cap + 1} terms, over the {_MAX_COUNTS} limit"
        )
    return cap


# Fewest counts in the first chunk of a quantile search.
_FIRST_CHUNK = 32


def _mixture_quantile(masses: np.ndarray, weights: np.ndarray, p: float) -> int:
    """Smallest m whose cumulative probability under a Poisson mixture reaches p.

    The mixture has one Poisson component per mass, weighted by the
    matching (normalized) weight. Direct summation of the mass functions;
    exactness matters at the small means typical near a stopping decision.
    The counts are summed in chunks from 0, each twice as wide as the one
    before; each chunk's cumulative sum continues from the last one's
    total, and the search stops at the first chunk whose cdf reaches p. So
    the work follows the quantile, and every cdf value is the one a single
    array would give. The first chunk is as wide as one block of
    ``_BLOCK_ELEMENTS`` holds with a row per component, but at least
    ``_FIRST_CHUNK`` counts, so a single Poisson with a mean up to about
    6,000 takes one chunk.

    The chunks end at the cap for the largest mass, past which every
    component's tail is below e**-200 and cannot move the cdf. Raises
    DegenerateDistributionError when the cdf there still rounds short of
    p, or when that cap would need more than 2**22 terms, so a wild grid
    point fails at once, as it would when summed on its own.
    """
    top = _summation_cap(float(masses.max())) + 1
    start, total = 0, 0.0
    width = max(_FIRST_CHUNK, _BLOCK_ELEMENTS // masses.size)
    while start < top:
        width = min(width, top - start)
        cdf = _mixture_pmf(masses, weights, width, start)
        cdf[0] += total
        np.cumsum(cdf, out=cdf)
        if cdf[-1] >= p:
            return start + int(np.searchsorted(cdf, p, side="left"))
        start, total, width = start + width, float(cdf[-1]), 2 * width
    raise DegenerateDistributionError(
        f"count distribution's cdf reaches {total!r} by count {top - 1}, short of p = {p!r}"
    )


def _mixture_pmf(
    masses: np.ndarray, weights: np.ndarray, size: int, start: int = 0
) -> np.ndarray:
    """The mixture's probabilities of the counts start..start+size-1.

    Components are summed in row blocks of about ``_BLOCK_ELEMENTS``; each
    block takes its masses' logs and is folded into the running sum left
    to right, so every count's probability is added up in component
    order, as one component at a time would, and the memory used grows
    with the count range only. A count's probability does not depend on
    start or size.
    """
    counts = np.arange(start, start + size, dtype=float)
    log_fact = log_factorials(start + size)[start:]
    rows = max(1, _BLOCK_ELEMENTS // size)
    mixture = None
    for first in range(0, masses.size, rows):
        m = masses[first:first + rows]
        w = weights[first:first + rows]
        block = np.multiply.outer(np.log(m, out=np.zeros(m.size), where=m > 0), counts)
        block -= m[:, None]
        block -= log_fact
        np.exp(block, out=block)
        block *= w[:, None]
        zero = m == 0.0
        if zero.any():  # a zero mass puts all of its weight on count 0
            block[zero] = 0.0
            if start == 0:
                block[zero, 0] = w[zero]
        if mixture is not None:
            block[0] += mixture
        mixture = np.add.reduce(block, axis=0)
    return mixture


def _check_confidence(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {p}")


def poisson_quantile(mean: float, p: float) -> int:
    """Smallest m whose cumulative Poisson probability reaches p.

    Raises DegenerateDistributionError when the sum would need more than
    2**22 terms, or when the cdf rounds short of p. For p within a few
    ulps of 1, which of the two answers comes out is decided by rounding.
    """
    _check_confidence(p)
    if mean < 0 or not math.isfinite(mean):
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    return _mixture_quantile(np.array([mean]), np.array([1.0]), p)


def estimate_remaining_ip(
    curve: RateCurve, i: int, j: int, p: float
) -> RemainingEstimate:
    """Fixed-mean Poisson estimate for the relevant-count in ranks [i, j]."""
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


def estimate_remaining_cox(
    curve: RateCurve, i: int, j: int, p: float, grid: int = 9
) -> RemainingEstimate:
    """Parameter-uncertainty mixture estimate for the count in ranks [i, j].

    Falls back to the fixed-mean estimate (flagged) when any parameter
    variance is non-finite, i.e. the fit could not support an
    uncertainty model. Zero variances reproduce the fixed-mean result
    exactly. A confidence outside (0, 1) or a bad interval raises
    ValueError before any grid work.
    """
    if not (is_integer(grid) and 3 <= grid <= MAX_COX_GRID and grid % 2 == 1):
        raise ValidationError(
            f"grid must be an odd integer in [3, {MAX_COX_GRID}], got {grid}"
        )
    _check_confidence(p)
    params = curve.params
    family = params.kind.family
    family.check_interval(params.n_total, i, j)

    variances = curve.param_variance
    if any(not math.isfinite(v) for v in variances):
        ip = estimate_remaining_ip(curve, i, j, p)
        return RemainingEstimate(ip.interval, ip.lambda_mass, ip.upper_bound, p, fallback=True)
    if all(v == 0.0 for v in variances):
        return estimate_remaining_ip(curve, i, j, p)

    axes, axis_weights = _param_grids(curve, grid)
    # one column per grid point, in row-major order: the order of the weight sum
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    weights = functools.reduce(np.multiply.outer, axis_weights).ravel()
    valid = family.admits(points)
    if not valid.any():
        raise DegenerateDistributionError(
            "every grid point violates the parameter constraints"
        )
    weights = weights[valid]
    weights = weights / weights.sum()

    # Each point of the shape parameters (all but a, every family's first)
    # takes one unit-scale area, and each mass is a times it, as in
    # integral. The kept points meet RateParams' constraints.
    a_axis = axes[0]
    valid = valid.reshape(a_axis.size, -1)  # row per a, column per shape point
    masses = np.zeros(valid.shape)  # an empty interval's, as in integral: no signed zeros
    if i < j:
        shapes = points[1:, :valid.shape[1]].T.tolist()  # the columns of the first a
        # a shape point outside its ranges gets no area call; its masses are dropped
        unit = [
            family.area(i, j, params.n_total, *shape) if kept else 0.0
            for shape, kept in zip(shapes, valid.any(axis=0).tolist())
        ]
        masses = np.multiply.outer(a_axis, unit)
    masses = masses[valid]  # row-major, the order of the weights
    mean_mass = float(weights @ masses)
    return RemainingEstimate((i, j), mean_mass, _mixture_quantile(masses, weights, p), p)
