"""Batched screening loop that decides when enough of a ranking is done.

The loop screens a ranking in batches. At each checkpoint k it:

  1. counts the relevant documents found in ranks 1..k;
  2. skips estimation while too few have been seen (a static count, or a
     bound that relaxes as screening progresses: 20 * (1 - k/n));
  3. fits the configured rate family to windowed relevance frequencies
     of the screened prefix, skipping if the fit fails or its
     range-normalized error (NRMSE) exceeds the threshold. Every family
     declines in rank, so no fit can beat the least squared error of the
     best non-increasing sequence through the window means. The NRMSE
     built from that error, the floor, bounds every fit's from below;
     when it exceeds the threshold by a margin that covers rounding, the
     fit is skipped and the checkpoint rejected with no curve on its
     trace (``fit_at`` fits that curve on demand);
  4. estimates the relevant documents remaining in ranks k+1..n at the
     configured confidence, forming a total estimate: found so far plus
     the confidence-level upper bound;
  5. stops once the found count covers the target-recall share of that
     total estimate.

If no checkpoint stops, the whole ranking is screened.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import RankedTopic
from .errors import ConfigError, TarStopError, is_integer
from .estimates import (
    ProcessKind,
    RemainingEstimate,
    estimate_remaining_cox,
    estimate_remaining_ip,
)
from .rates import RateCurve, RateKind, fit_rate, window_estimates


@dataclass(frozen=True)
class StaticMinRel:
    """Fit only after a fixed number of relevant documents is seen."""

    threshold: int = 10

    def __post_init__(self):
        if self.threshold < 1:
            raise ConfigError(f"static threshold must be >= 1, got {self.threshold}")

    def passes(self, rel: int, k: int, n: int) -> bool:
        return rel >= self.threshold


@dataclass(frozen=True)
class DynamicMinRel:
    """Required relevant count relaxes linearly with screening progress."""

    def passes(self, rel: int, k: int, n: int) -> bool:
        return rel >= 20.0 * (1.0 - k / n)


MinRelRule = StaticMinRel | DynamicMinRel


class BatchSchedule(enum.Enum):
    UNIFORM_FRACTION = "uniform"
    AUTOTAR = "autotar"


class Gate(enum.Enum):
    TOO_FEW_RELEVANT = "too_few_relevant"
    FIT_FAILED = "fit_failed"
    NRMSE_REJECTED = "nrmse_rejected"
    EVALUATED = "evaluated"


@dataclass(frozen=True)
class StoppingConfig:
    """Tuned defaults: fixed-mean process, hyperbolic rate, NRMSE gate 0.1,
    relaxing minimum-relevant rule, 2.5% initial sample and increments,
    confidence 0.95."""

    target_recall: float = 0.9
    confidence: float = 0.95
    alpha: float = 0.025  # initial screened fraction
    beta: float = 0.025  # screened fraction added per checkpoint
    process: ProcessKind = ProcessKind.INHOMOGENEOUS_POISSON
    rate_kind: RateKind = RateKind.HYPERBOLIC
    nrmse_threshold: float = 0.1
    min_rel_rule: MinRelRule = field(default_factory=DynamicMinRel)
    window_size: int = 25
    batch_schedule: BatchSchedule = BatchSchedule.UNIFORM_FRACTION

    def __post_init__(self):
        if not 0.0 < self.target_recall <= 1.0:
            raise ConfigError(f"target_recall must be in (0, 1], got {self.target_recall}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {self.confidence}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1], got {self.beta}")
        if not self.nrmse_threshold > 0:
            raise ConfigError(f"nrmse_threshold must be > 0, got {self.nrmse_threshold}")
        if not is_integer(self.window_size):
            raise ConfigError(f"window_size must be an integer, got {self.window_size!r}")
        if self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")


@dataclass(frozen=True)
class IterationTrace:
    """One checkpoint of a run: its gate, and the curve and estimate
    behind it.

    A checkpoint that the NRMSE floor rejects has no curve, since none was
    fitted; ``fit_at`` fits it on demand.
    """

    k: int
    rel_found: int
    gate: Gate
    curve: RateCurve | None = None
    estimate: RemainingEstimate | None = None
    total_estimate: float | None = None
    stop_decision: bool = False


@dataclass(frozen=True)
class StoppingOutcome:
    method: str
    topic_id: str
    stop_rank: int
    docs_examined: int
    rel_found: int
    hit_end: bool
    traces: tuple[IterationTrace, ...] = ()


def _snap(x: float) -> float:
    """x, or the integer it misses only by float noise (0.07 * 100 is
    7.000000000000001), so that a ceiling lands on the intended integer."""
    nearest = round(x)
    if abs(x - nearest) < 1e-9 * max(1.0, abs(x)):
        return float(nearest)
    return x


def checkpoints(n: int, config: StoppingConfig) -> list[int]:
    """Candidate stopping ranks (strictly below n) for one topic."""
    # at least rank 1 and a step of 1, even when a fraction of n snaps to 0
    first = max(1, math.ceil(_snap(config.alpha * n)))
    if config.batch_schedule is BatchSchedule.UNIFORM_FRACTION:
        step = max(1, math.ceil(_snap(config.beta * n)))
        return list(range(first, n, step)) if first < n else []
    # Growing batches: size 1, then += ceil(size/10); fits start at the
    # initial-sample rank even though batch boundaries exist earlier.
    points = []
    k, batch = 0, 1
    while True:
        k += batch
        if k >= n:
            break
        if k >= first:
            points.append(k)
        batch += math.ceil(batch / 10)
    return points


def relevant_needed(target_recall: float, total: float) -> int:
    """Fewest relevant documents that reach the target share of a total:
    ceil(target * total), with the product's float noise snapped away."""
    return math.ceil(_snap(target_recall * total))


def stop_decision(rel_found: int, total_estimate: float, target_recall: float) -> bool:
    """Has screening found the target share of the estimated total?

    The rule is found >= ``relevant_needed(target, estimate)``.
    """
    return rel_found >= relevant_needed(target_recall, total_estimate)


def fit_at(topic: RankedTopic, config: StoppingConfig, k: int) -> RateCurve | TarStopError:
    """The curve of ``config``'s rate family fitted to ``topic``'s first k
    labels, or the error that the fit raised.

    The curve depends only on those labels, the rate family, the window and
    n, so it is fitted once per topic and shared by every process and
    policy that screens the topic, and by every later call.
    """
    fits = topic._fits
    key = (config.rate_kind, config.window_size, k)
    if key not in fits:
        try:
            points = window_estimates(topic.labels[:k], config.window_size)
            fits[key] = fit_rate(points, config.rate_kind, topic.n)
        except TarStopError as exc:
            # drop the traceback: its frames hold the windowed prefix arrays
            fits[key] = exc.with_traceback(None)
    return fits[key]


def _antitonic_errors(counts: list[int]) -> list[float]:
    """Least squared error of the best non-increasing sequence through
    each prefix of ``counts``.

    Pool-adjacent-violators, left to right: a stack of blocks, each fitted
    by its mean, where a block whose mean exceeds its predecessor's merges
    with it. After each count the stack is the best fit of the prefix, and
    each block's entry carries the error of the blocks up to it. A block's
    error is an exact integer over its size, rounded once, and the entries
    only add these, so each result is within (blocks + 1) * 2**-53 of the
    exact value, relative.
    """
    blocks: list[tuple[int, int, int, float]] = []  # (sum, size, sum of squares, error)
    errors = []
    for c in counts:
        total, size, squares = c, 1, c * c
        while blocks and total * blocks[-1][1] > blocks[-1][0] * size:
            prev_total, prev_size, prev_squares, _ = blocks.pop()
            total += prev_total
            size += prev_size
            squares += prev_squares
        error = (size * squares - total * total) / size + (blocks[-1][3] if blocks else 0.0)
        blocks.append((total, size, squares, error))
        errors.append(error)
    return errors


# The floor rejects a checkpoint only when it exceeds the threshold by this
# share, which covers the rounding of the two sums of squares it compares:
# each adds at most m non-negative terms, each rounded a few times, so
# either is within about (m + 3) * 2**-53 of its exact value, relative,
# whatever the order of its additions; the square roots and quotients
# around them add a few 2**-53 more. Below 10**9 windows all of that stays
# under 3e-7.
_FLOOR_MARGIN = 1e-6
# What the floor gives up for rounding that does not scale with it: a
# window mean is within 2**-53 of its count over the window size,
# relative, and a computed rate may rise by a few ulps from one window to
# the next where the exact one falls. The least squared error of a
# non-increasing fit is a squared distance to a convex cone, which moves
# by no more than the data do, in norm; so each moves the floor by at most
# a few 2**-53 times the largest mean, over the range.
_FLOOR_SLACK = 2.0**-50


def _nrmse_floor(topic: RankedTopic, window: int, k: int) -> float:
    """A lower bound on the NRMSE of every curve the fit can return at
    checkpoint k, or 0.0 on fewer than three windows or a zero range,
    where the NRMSE is not defined.

    Every rate family declines in rank for every value the fit returns
    (``rates._FAMILIES``), so a fitted curve is a non-increasing sequence
    at the window centers and its squared error is at least the least
    squared error of any such sequence. That error over the full windows
    of the prefix comes from one pass over the topic's full windows per
    window size, cached on the topic; leaving out a trailing partial
    window only lowers it. The window count m and the range are those of
    the fit's own points.
    """
    tables = topic._floors.get(window)
    if tables is None:
        full = topic.n // window
        counts = topic.labels[:full * window].reshape(full, window).sum(axis=1)
        tables = topic._floors[window] = (
            np.array(_antitonic_errors(counts.tolist())),
            np.maximum.accumulate(counts), np.minimum.accumulate(counts),
        )
    errors, highest, lowest = tables
    full, rem = divmod(k, window)
    if full < 1:
        return 0.0
    # the means as rates.window_estimates rounds them
    y_max, y_min = highest[full - 1] / window, lowest[full - 1] / window
    m = full
    if rem and rem >= window / 2.0:
        partial = topic.labels[k - rem:k].sum() / rem
        y_max, y_min = max(y_max, partial), min(y_min, partial)
        m += 1
    span = float(y_max - y_min)
    if m < 3 or span <= 0.0:
        return 0.0
    rms = math.sqrt(errors[full - 1] / m) / window
    return (rms - _FLOOR_SLACK * float(y_max)) / span


def _evaluate_checkpoint(
    topic: RankedTopic, config: StoppingConfig, k: int
) -> IterationTrace:
    rel = topic.relevant_in_prefix(k)
    if not config.min_rel_rule.passes(rel, k, topic.n):
        return IterationTrace(k, rel, Gate.TOO_FEW_RELEVANT)

    floor = _nrmse_floor(topic, config.window_size, k)
    if floor > config.nrmse_threshold * (1.0 + _FLOOR_MARGIN):
        return IterationTrace(k, rel, Gate.NRMSE_REJECTED)

    curve = fit_at(topic, config, k)
    if isinstance(curve, TarStopError):
        return IterationTrace(k, rel, Gate.FIT_FAILED)

    if curve.nrmse > config.nrmse_threshold:
        return IterationTrace(k, rel, Gate.NRMSE_REJECTED, curve=curve)

    try:
        if config.process is ProcessKind.COX:
            estimate = estimate_remaining_cox(curve, k + 1, topic.n, config.confidence)
        else:
            estimate = estimate_remaining_ip(curve, k + 1, topic.n, config.confidence)
    except TarStopError:
        # a curve the estimator cannot use counts as a failed fit
        return IterationTrace(k, rel, Gate.FIT_FAILED, curve=curve)

    total = rel + estimate.upper_bound
    stop = stop_decision(rel, total, config.target_recall)
    return IterationTrace(
        k, rel, Gate.EVALUATED, curve=curve, estimate=estimate,
        total_estimate=float(total), stop_decision=stop,
    )


def run_stopping(topic: RankedTopic, config: StoppingConfig) -> StoppingOutcome:
    """Run the screening loop over one topic and report where it stopped.

    Each checkpoint's curve is fitted once per topic: later runs over the
    same topic, whatever their process or policy, reuse it.
    """
    method = config.process.value
    traces: list[IterationTrace] = []
    for k in checkpoints(topic.n, config):
        trace = _evaluate_checkpoint(topic, config, k)
        traces.append(trace)
        if trace.stop_decision:
            return StoppingOutcome(
                method, topic.topic_id, k, k, trace.rel_found,
                hit_end=False, traces=tuple(traces),
            )
    n = topic.n
    return StoppingOutcome(
        method, topic.topic_id, n, n, topic.total_relevant,
        hit_end=True, traces=tuple(traces),
    )
