"""Per-topic and collection-level evaluation of stopping outcomes.

Per topic:
  recall          found / total relevant (1 when the topic has none)
  cost            documents examined / collection size
  hit_target      recall >= target
  relative_error  |recall - target| / target
  loss_r          (1 - recall)^2
  loss_e          (100/n)^2 * (examined / (relevant + 100))^2
  loss_er         loss_r + loss_e

Collections aggregate each metric as mean and population standard
deviation across topics, plus reliability: the fraction of topics where
the target recall was reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import RankedTopic
from .stopping import StoppingOutcome


@dataclass(frozen=True)
class TopicMetrics:
    topic_id: str
    method: str
    recall: float
    cost: float
    hit_target: bool
    relative_error: float
    loss_r: float
    loss_e: float
    loss_er: float


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


@dataclass(frozen=True)
class CollectionMetrics:
    topics: int
    reliability: float
    recall: MeanStd
    cost: MeanStd
    relative_error: MeanStd
    loss_r: MeanStd
    loss_e: MeanStd
    loss_er: MeanStd


def topic_metrics(
    outcome: StoppingOutcome, topic: RankedTopic, target_recall: float
) -> TopicMetrics:
    """Score one outcome against its topic at the given target recall."""
    if outcome.topic_id != topic.topic_id:
        raise ValueError(
            f"outcome topic {outcome.topic_id!r} does not match {topic.topic_id!r}"
        )
    total = topic.total_relevant
    recall = outcome.rel_found / total if total > 0 else 1.0
    cost = outcome.docs_examined / topic.n
    loss_r = (1.0 - recall) ** 2
    loss_e = (100.0 / topic.n) ** 2 * (outcome.docs_examined / (total + 100.0)) ** 2
    return TopicMetrics(
        topic_id=topic.topic_id,
        method=outcome.method,
        recall=recall,
        cost=cost,
        hit_target=recall >= target_recall,
        relative_error=abs(recall - target_recall) / target_recall,
        loss_r=loss_r,
        loss_e=loss_e,
        loss_er=loss_r + loss_e,
    )


def _mean_std(values: list[float]) -> MeanStd:
    arr = np.asarray(values, dtype=float)
    # population standard deviation, matching descriptive +/- reporting
    return MeanStd(float(arr.mean()), float(arr.std()))


def aggregate(topics: list[TopicMetrics]) -> CollectionMetrics:
    """Mean and population std of each metric, plus the hit fraction."""
    if not topics:
        raise ValueError("cannot aggregate an empty list of topic metrics")
    return CollectionMetrics(
        topics=len(topics),
        reliability=sum(t.hit_target for t in topics) / len(topics),
        recall=_mean_std([t.recall for t in topics]),
        cost=_mean_std([t.cost for t in topics]),
        relative_error=_mean_std([t.relative_error for t in topics]),
        loss_r=_mean_std([t.loss_r for t in topics]),
        loss_e=_mean_std([t.loss_e for t in topics]),
        loss_er=_mean_std([t.loss_er for t in topics]),
    )


def remaining_error(predicted: float, actual: int) -> float:
    """Normalized prediction error for the remaining-relevant count:
    (predicted - actual) / actual. Undefined when nothing remains."""
    if actual < 1:
        raise ValueError("remaining_error requires at least one actual remaining")
    return (predicted - actual) / actual


def mean_remaining_error(
    outcome: StoppingOutcome, topic: RankedTopic
) -> float | None:
    """Average prediction error over the evaluated checkpoints of a trace.

    Checkpoints where no relevant documents actually remain are skipped;
    returns None when no checkpoint qualifies.
    """
    total = topic.total_relevant
    errors = []
    for trace in outcome.traces:
        if trace.estimate is None:  # not evaluated
            continue
        actual = total - trace.rel_found
        if actual < 1:
            continue
        errors.append(remaining_error(trace.estimate.upper_bound, actual))
    return sum(errors) / len(errors) if errors else None


def ranking_effectiveness(topic: RankedTopic) -> float:
    """Area under the cumulative-recall curve, normalized by the best
    achievable area; 1.0 means all relevant documents lead the ranking.
    Used to order rankings by quality. Vacuously 1.0 with no relevant."""
    total = topic.total_relevant
    if total == 0:
        return 1.0
    n = topic.n
    gain = np.cumsum(topic.labels.astype(float)) / total
    ideal = np.minimum(np.arange(1, n + 1, dtype=float), total) / total
    return float(gain.sum() / ideal.sum())
