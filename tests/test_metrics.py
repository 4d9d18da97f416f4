"""Topic and collection metric arithmetic."""

import numpy as np
import pytest

from tarstop.metrics import (
    aggregate,
    mean_remaining_error,
    ranking_effectiveness,
    remaining_error,
    topic_metrics,
)
from tarstop.corpus import SyntheticSpec, generate_synthetic
from tarstop.rates import RateKind
from tarstop import stopping
from tarstop.stopping import Gate, StoppingConfig, StoppingOutcome, run_stopping

from conftest import topic_from_labels


def outcome(topic, rel_found, examined, method="m"):
    return StoppingOutcome(
        method=method,
        topic_id=topic.topic_id,
        stop_rank=examined,
        docs_examined=examined,
        rel_found=rel_found,
        hit_end=examined == topic.n,
    )


class TestTopicMetrics:
    def test_full_screen_spot_values(self):
        # n = o = 100, R = 20, full recall:
        # loss_e = (100/100)^2 * (100/120)^2 = 0.69444...
        labels = np.zeros(100, dtype=bool)
        labels[:20] = True
        topic = topic_from_labels(labels)
        tm = topic_metrics(outcome(topic, 20, 100), topic, 0.9)
        assert tm.recall == 1.0
        assert tm.cost == 1.0
        assert tm.loss_r == 0.0
        assert tm.loss_e == pytest.approx(0.694444444, abs=1e-6)
        assert tm.loss_er == tm.loss_e

    def test_perfect_recall_zero_loss_r(self, rng):
        for _ in range(10):
            n = int(rng.integers(50, 400))
            labels = rng.random(n) < 0.2
            topic = topic_from_labels(labels)
            tm = topic_metrics(
                outcome(topic, topic.total_relevant, n), topic, 0.8
            )
            assert tm.loss_r == 0.0
            assert tm.recall == 1.0

    def test_exact_target_zero_relative_error(self):
        labels = np.zeros(100, dtype=bool)
        labels[:10] = True
        topic = topic_from_labels(labels)
        tm = topic_metrics(outcome(topic, 9, 50), topic, 0.9)
        assert tm.relative_error == 0.0
        assert tm.hit_target

    def test_loss_sum_identity(self, rng):
        for _ in range(50):
            n = int(rng.integers(30, 500))
            labels = rng.random(n) < 0.15
            topic = topic_from_labels(labels)
            found = int(rng.integers(0, topic.total_relevant + 1))
            examined = int(rng.integers(1, n + 1))
            tm = topic_metrics(outcome(topic, found, examined), topic, 0.9)
            assert tm.loss_er == tm.loss_r + tm.loss_e
            assert 0.0 <= tm.recall <= 1.0
            assert 0.0 <= tm.cost <= 1.0

    def test_no_relevant_convention(self):
        topic = topic_from_labels(np.zeros(40, dtype=bool))
        tm = topic_metrics(outcome(topic, 0, 1), topic, 0.9)
        assert tm.recall == 1.0
        assert tm.hit_target

    def test_topic_mismatch_rejected(self):
        a = topic_from_labels([1, 0], topic_id="A")
        b = topic_from_labels([1, 0], topic_id="B")
        with pytest.raises(ValueError):
            topic_metrics(outcome(a, 1, 1), b, 0.9)


class TestAggregate:
    def test_reliability_fraction(self):
        labels = np.zeros(100, dtype=bool)
        labels[:20] = True
        topic = topic_from_labels(labels)
        tms = [
            topic_metrics(outcome(topic, r, 60), topic, 0.9)
            for r in (19, 17, 18)  # recalls 0.95, 0.85, 0.90
        ]
        agg = aggregate(tms)
        assert agg.reliability == pytest.approx(2 / 3)

    def test_single_topic_zero_std(self):
        topic = topic_from_labels([1, 1, 0, 0])
        agg = aggregate([topic_metrics(outcome(topic, 2, 4), topic, 0.9)])
        assert agg.recall.std == 0.0
        assert agg.cost.std == 0.0
        assert agg.topics == 1

    def test_matches_independent_recomputation(self, rng):
        rows = []
        recalls, costs = [], []
        for i in range(3):
            n = int(rng.integers(50, 200))
            labels = rng.random(n) < 0.3
            topic = topic_from_labels(labels, topic_id=f"T{i}")
            found = int(rng.integers(1, topic.total_relevant + 1))
            examined = int(rng.integers(1, n + 1))
            rows.append(topic_metrics(outcome(topic, found, examined), topic, 0.9))
            recalls.append(found / topic.total_relevant)
            costs.append(examined / n)
        agg = aggregate(rows)
        assert agg.recall.mean == pytest.approx(np.mean(recalls), rel=1e-12)
        assert agg.recall.std == pytest.approx(np.std(recalls), rel=1e-12)
        assert agg.cost.mean == pytest.approx(np.mean(costs), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestRemainingError:
    def test_spot_values(self):
        assert remaining_error(10, 10) == 0.0
        assert remaining_error(15, 10) == 0.5
        assert remaining_error(5, 10) == -0.5

    def test_zero_actual_rejected(self):
        with pytest.raises(ValueError):
            remaining_error(3, 0)

    def test_trace_replay(self):
        topic = generate_synthetic(
            SyntheticSpec(n=5000, kind="exponential", params={"a": 0.5, "b": -0.005}, seed=101)
        )
        out = run_stopping(
            topic, StoppingConfig(rate_kind=RateKind.EXPONENTIAL, target_recall=0.95)
        )
        err = mean_remaining_error(out, topic)
        # replay the trace by hand
        expected = []
        for tr in out.traces:
            if tr.estimate is None:
                continue
            actual = topic.total_relevant - tr.rel_found
            if actual >= 1:
                expected.append((tr.estimate.upper_bound - actual) / actual)
        if expected:
            assert err == pytest.approx(sum(expected) / len(expected), rel=1e-12)
        else:
            assert err is None

    def test_floor_rejections_change_nothing(self, monkeypatch):
        # the NRMSE floor rejects five of this topic's checkpoints unfitted;
        # a run without the floor fits them, rejects them, and errs the same
        spec = SyntheticSpec(n=2000, kind="exponential", params={"a": 0.5, "b": -0.005}, seed=2)
        topic = generate_synthetic(spec)
        cfg = StoppingConfig(rate_kind=RateKind.EXPONENTIAL)
        out = run_stopping(topic, cfg)
        assert sum(tr.curve is None and tr.gate is Gate.NRMSE_REJECTED for tr in out.traces) == 5
        monkeypatch.setattr(stopping, "_nrmse_floor", lambda topic, window, k: 0.0)
        floor_free = generate_synthetic(spec)
        eager = run_stopping(floor_free, cfg)
        assert all(tr.curve is not None for tr in eager.traces if tr.gate is Gate.NRMSE_REJECTED)
        assert mean_remaining_error(out, topic) == mean_remaining_error(eager, floor_free) == 0.0


class TestRankingEffectiveness:
    def test_perfect_ranking(self):
        labels = np.zeros(100, dtype=bool)
        labels[:10] = True
        assert ranking_effectiveness(topic_from_labels(labels)) == pytest.approx(1.0)

    def test_worst_ranking_is_lower(self):
        front = np.zeros(100, dtype=bool)
        front[:10] = True
        back = np.zeros(100, dtype=bool)
        back[-10:] = True
        assert ranking_effectiveness(topic_from_labels(back)) < ranking_effectiveness(
            topic_from_labels(front)
        )

    def test_no_relevant_vacuous(self):
        assert ranking_effectiveness(topic_from_labels(np.zeros(30, dtype=bool))) == 1.0
