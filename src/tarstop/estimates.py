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
import itertools
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


def _pmf_row(mean: float, counts: np.ndarray) -> np.ndarray:
    if mean == 0.0:
        row = np.zeros(counts.size)
        row[0] = 1.0
        return row
    return np.exp(-mean + counts * math.log(mean) - gammaln(counts + 1))


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


def poisson_quantile(mean: float, p: float) -> int:
    """Smallest m whose cumulative Poisson probability reaches p.

    Direct summation of the mass function; exactness matters at the
    small means typical near a stopping decision. Raises
    DegenerateDistributionError when the sum would need more than
    2**22 terms.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {p}")
    if mean < 0 or not math.isfinite(mean):
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    if mean == 0.0:
        return 0
    cap = _summation_cap(mean)
    while True:
        counts = np.arange(cap + 1, dtype=float)
        cdf = np.cumsum(_pmf_row(mean, counts))
        if cdf[-1] >= p:
            return int(np.searchsorted(cdf, p, side="left"))
        cap = _bounded_cap(cap * 2)


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


def _valid_combo(kind: RateKind, values: tuple[float, ...]) -> bool:
    a = values[0]
    if a <= 0:
        return False
    if kind is RateKind.HYPERBOLIC:
        _, b, c = values
        return 0.0 <= b <= 1.0 and c > 0
    if kind is RateKind.AP_PRIOR:
        return True
    return values[1] <= 0  # decline constraint for exponential / power law


def _combo_params(kind: RateKind, values: tuple[float, ...], n_total: int | None) -> RateParams:
    if kind is RateKind.HYPERBOLIC:
        return RateParams(kind, a=values[0], b=values[1], c=values[2])
    if kind is RateKind.AP_PRIOR:
        return RateParams(kind, a=values[0], n_total=n_total)
    return RateParams(kind, a=values[0], b=values[1])


def estimate_remaining_cox(
    curve: RateCurve, i: int, j: int, p: float, grid: int = 9
) -> RemainingEstimate:
    """Parameter-uncertainty mixture estimate for the count in ranks [i, j].

    Falls back to the fixed-mean estimate (flagged) when any parameter
    variance is non-finite, i.e. the fit could not support an
    uncertainty model. Zero variances reproduce the fixed-mean result
    exactly.
    """
    if grid < 3 or grid % 2 == 0:
        raise ValidationError(f"grid must be an odd integer >= 3, got {grid}")
    _check_interval(i, j)

    variances = curve.param_variance
    if any(not math.isfinite(v) for v in variances):
        ip = estimate_remaining_ip(curve, i, j, p)
        return RemainingEstimate(ip.interval, ip.lambda_mass, ip.upper_bound, p, fallback=True)
    if all(v == 0.0 for v in variances):
        return estimate_remaining_ip(curve, i, j, p)

    kind = curve.params.kind
    axes, axis_weights = _param_grids(curve, grid)
    combos = []
    combo_weights = []
    for values, ws in zip(itertools.product(*axes), itertools.product(*axis_weights)):
        if not _valid_combo(kind, values):
            continue
        combos.append(values)
        combo_weights.append(math.prod(ws))
    if not combos:
        raise DegenerateDistributionError(
            "every grid point violates the parameter constraints"
        )
    weights = np.asarray(combo_weights)
    weights = weights / weights.sum()

    masses = np.array(
        [
            rate_integral(_combo_params(kind, values, curve.params.n_total), i, j)
            for values in combos
        ]
    )
    mean_mass = float(weights @ masses)

    cap = _summation_cap(float(masses.max()))
    while True:
        counts = np.arange(cap + 1, dtype=float)
        mixture = np.zeros(counts.size)
        for w, mass in zip(weights, masses):
            mixture += w * _pmf_row(float(mass), counts)
        cdf = np.cumsum(mixture)
        if cdf[-1] >= p:
            upper = int(np.searchsorted(cdf, p, side="left"))
            break
        cap = _bounded_cap(cap * 2)
    return RemainingEstimate((i, j), mean_mass, upper, p)
