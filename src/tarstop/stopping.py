"""Batched screening loop that decides when enough of a ranking is done.

The loop screens a ranking in batches. At each checkpoint k it:

  1. counts the relevant documents found in ranks 1..k;
  2. skips estimation while too few have been seen (a static count, or a
     bound that relaxes as screening progresses: 20 * (1 - k/n));
  3. fits the configured rate family to windowed relevance frequencies
     of the screened prefix, skipping if the fit fails or its
     range-normalized error exceeds the threshold;
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

from .corpus import RankedTopic
from .errors import ConfigError, TarStopError
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
    cox_grid: int = 9
    # Stop once target_recall * estimate is strictly below the found count,
    # mirroring the looser pseudocode comparison instead of the ceiling rule.
    pseudocode_stop_rule: bool = False
    # Use the distribution mean instead of its confidence upper bound.
    use_mean_estimate: bool = False

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
        if self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")


def default_config() -> StoppingConfig:
    """Tuned defaults: fixed-mean process, hyperbolic rate, NRMSE gate 0.1,
    relaxing minimum-relevant rule, 2.5% initial sample and increments,
    confidence 0.95."""
    return StoppingConfig()


@dataclass(frozen=True)
class IterationTrace:
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


def checkpoints(n: int, config: StoppingConfig) -> list[int]:
    """Candidate stopping ranks (strictly below n) for one topic."""
    first = math.ceil(config.alpha * n)
    if config.batch_schedule is BatchSchedule.UNIFORM_FRACTION:
        step = math.ceil(config.beta * n)
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


def stop_decision(
    rel_found: int, total_estimate: float, target_recall: float,
    pseudocode_rule: bool = False,
) -> bool:
    """Has screening found the target share of the estimated total?

    Default rule: found >= ceil(target * estimate). The pseudocode
    variant instead requires target * estimate to fall strictly below
    the found count.
    """
    required = target_recall * total_estimate
    # snap float noise at integer boundaries (0.07 * 100 -> 7.000000000000001)
    if abs(required - round(required)) < 1e-9 * max(1.0, abs(required)):
        required = float(round(required))
    if pseudocode_rule:
        return required < rel_found
    return rel_found >= math.ceil(required)


# Fits of one topic keyed by (rate kind, window size, checkpoint): the fitted
# curve, or the error that windowing or fitting raised.
FitMemo = dict[tuple[RateKind, int, int], "RateCurve | TarStopError"]


def _fit_at(topic: RankedTopic, config: StoppingConfig, k: int, memo: FitMemo):
    # The curve at k depends only on labels[:k], the rate family, the window
    # and n, so every process and policy screening this topic can share it.
    key = (config.rate_kind, config.window_size, k)
    if key not in memo:
        try:
            points = window_estimates(topic.labels[:k], config.window_size)
            memo[key] = fit_rate(points, config.rate_kind, topic.n)
        except TarStopError as exc:
            # drop the traceback: its frames hold the windowed prefix arrays
            memo[key] = exc.with_traceback(None)
    return memo[key]


def _evaluate_checkpoint(
    topic: RankedTopic, config: StoppingConfig, k: int, memo: FitMemo
) -> IterationTrace:
    rel = topic.relevant_in_prefix(k)
    if not config.min_rel_rule.passes(rel, k, topic.n):
        return IterationTrace(k, rel, Gate.TOO_FEW_RELEVANT)

    curve = _fit_at(topic, config, k, memo)
    if isinstance(curve, TarStopError):
        return IterationTrace(k, rel, Gate.FIT_FAILED)

    if curve.nrmse > config.nrmse_threshold:
        return IterationTrace(k, rel, Gate.NRMSE_REJECTED, curve=curve)

    try:
        if config.process is ProcessKind.COX:
            estimate = estimate_remaining_cox(
                curve, k + 1, topic.n, config.confidence, config.cox_grid
            )
        else:
            estimate = estimate_remaining_ip(curve, k + 1, topic.n, config.confidence)
    except TarStopError:
        # a curve the estimator cannot use counts as a failed fit
        return IterationTrace(k, rel, Gate.FIT_FAILED, curve=curve)

    remaining = estimate.lambda_mass if config.use_mean_estimate else estimate.upper_bound
    total = rel + remaining
    stop = stop_decision(rel, total, config.target_recall, config.pseudocode_stop_rule)
    return IterationTrace(
        k, rel, Gate.EVALUATED, curve=curve, estimate=estimate,
        total_estimate=float(total), stop_decision=stop,
    )


def run_stopping(
    topic: RankedTopic, config: StoppingConfig, memo: FitMemo | None = None
) -> StoppingOutcome:
    """Run the screening loop over one topic and report where it stopped.

    Pass the same ``memo`` (initially ``{}``) to every run over this topic
    to fit each checkpoint's curve once; it must never hold another
    topic's fits.
    """
    memo = {} if memo is None else memo
    method = config.process.value
    traces: list[IterationTrace] = []
    for k in checkpoints(topic.n, config):
        trace = _evaluate_checkpoint(topic, config, k, memo)
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
