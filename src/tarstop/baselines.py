"""Reference stopping methods: oracle, target sampling, and knee detection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import RankedTopic
from .errors import ConfigError, is_integer
from .stopping import BatchSchedule, StoppingConfig, StoppingOutcome, checkpoints


@dataclass(frozen=True)
class TargetConfig:
    """Random-sampling stop: draw until target_size relevant are found."""

    target_size: int
    seed: int

    def __post_init__(self):
        for key in ("target_size", "seed"):
            if not is_integer(value := getattr(self, key)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.target_size < 1:
            raise ConfigError(f"target_size must be >= 1, got {self.target_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class KneeConfig:
    """Gain-curve knee stop; checkpoints follow the screening schedule."""

    rho_threshold: float = 6.0
    alpha: float = 0.025
    beta: float = 0.025
    batch_schedule: BatchSchedule = BatchSchedule.UNIFORM_FRACTION

    def __post_init__(self):
        if not self.rho_threshold > 0:
            raise ConfigError(f"rho_threshold must be > 0, got {self.rho_threshold}")


def oracle_stop(topic: RankedTopic, target_recall: float) -> StoppingOutcome:
    """Stop with hindsight at the first rank reaching the target recall.

    This is the per-ranking lower bound on screening effort. When the
    target recall does not land exactly on an achievable fraction, the
    stop lands on the lowest recall above it. Topics without relevant
    documents stop immediately (the target is vacuous).
    """
    if not 0.0 < target_recall <= 1.0:
        raise ConfigError(f"target_recall must be in (0, 1], got {target_recall}")
    total = topic.total_relevant
    if total == 0:
        return StoppingOutcome("oracle", topic.topic_id, 1, 1, 0, hit_end=False)
    needed = math.ceil(target_recall * total)
    relevant_ranks = np.flatnonzero(topic.labels) + 1
    k = int(relevant_ranks[needed - 1])
    return StoppingOutcome("oracle", topic.topic_id, k, k, needed, hit_end=False)


def adapted_target_size(target_recall: float, confidence: float) -> int:
    """Relevant documents a random sample must contain so that screening to
    the deepest of them reaches the target recall with the given confidence:
    ceil(-log(1 - confidence) / (1 - target_recall))."""
    if not 0.0 < target_recall < 1.0:
        raise ValueError(
            "target_recall must be strictly below 1 (the size diverges at 1; "
            "use the 0.99 convention for an effectively-complete target)"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return math.ceil(-math.log(1.0 - confidence) / (1.0 - target_recall))


def target_stop(
    topic: RankedTopic, config: TargetConfig, method: str = "target"
) -> StoppingOutcome:
    """Sample ranks without replacement until the target set is filled, then
    stop at the deepest sampled relevant document.

    Cost counts unique documents screened: the sampled set plus the
    prefix up to the stop rank (overlaps screened once). If the topic
    has fewer relevant documents than the target size, sampling exhausts
    the collection and everything is screened.
    """
    n = topic.n
    rng = np.random.Generator(np.random.Philox(config.seed))
    order = rng.permutation(n)  # 0-based rank draw order
    relevant = topic.labels[order]
    hits = np.flatnonzero(relevant)
    if hits.size < config.target_size:
        return StoppingOutcome(
            method, topic.topic_id, n, n, topic.total_relevant, hit_end=True
        )
    last_hit = hits[config.target_size - 1]
    sampled = order[: last_hit + 1]
    k = int(sampled[relevant[: last_hit + 1].astype(bool)].max()) + 1
    examined = k + int(np.count_nonzero(sampled >= k))  # sampled ranks are distinct
    return StoppingOutcome(
        method, topic.topic_id, k, examined, topic.relevant_in_prefix(k), hit_end=False
    )


def _knee_candidate(gain: np.ndarray) -> int:
    """Rank (1-based) farthest from the chord of the normalized gain curve."""
    k = gain.size
    xs = np.arange(1, k + 1, dtype=float)
    x_norm = (xs - 1.0) / (k - 1.0)
    y_norm = gain / gain[-1]
    # distance to the chord between the curve's first and last points
    x0, y0 = x_norm[0], y_norm[0]
    dx, dy = x_norm[-1] - x0, y_norm[-1] - y0
    length = math.hypot(dx, dy)
    dist = np.abs(dy * (x_norm - x0) - dx * (y_norm - y0)) / length
    dist[0] = dist[-1] = -1.0  # endpoints are not knees
    return int(np.argmax(dist)) + 1


def knee_stop(topic: RankedTopic, config: KneeConfig) -> StoppingOutcome:
    """Stop when the gain curve's slope ratio at the detected knee is steep.

    At each checkpoint the cumulative-relevant curve over the screened
    prefix is scanned for the point farthest from its chord; the ratio of
    the slope before that point to the (smoothed) slope after it must
    reach the configured threshold. A flat curve never triggers a stop.
    """
    schedule = StoppingConfig(
        alpha=config.alpha, beta=config.beta, batch_schedule=config.batch_schedule
    )
    gain_full = np.cumsum(topic.labels.astype(int))
    for k in checkpoints(topic.n, schedule):
        if k < 3:
            continue
        gain = gain_full[:k]
        if gain[-1] == 0:
            continue
        knee = _knee_candidate(gain.astype(float))
        if knee >= k:
            continue
        rise = gain[knee - 1] / knee
        # +1 smoothing keeps the post-knee slope positive on flat tails
        tail = (gain[-1] - gain[knee - 1] + 1.0) / (k - knee)
        if rise / tail >= config.rho_threshold:
            return StoppingOutcome(
                "knee", topic.topic_id, k, k, int(gain[-1]), hit_end=False
            )
    n = topic.n
    return StoppingOutcome(
        "knee", topic.topic_id, n, n, topic.total_relevant, hit_end=True
    )
