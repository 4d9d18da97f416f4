"""Screening-loop behaviour: schedules, gates, stop rule, determinism."""

import math

import numpy as np
import pytest

from tarstop import stopping
from tarstop.corpus import RankedTopic, SyntheticSpec, generate_synthetic
from tarstop.errors import ConfigError, TarStopError
from tarstop.estimates import ProcessKind
from tarstop.rates import RateKind, fit_rate
from tarstop.stopping import (
    BatchSchedule,
    DynamicMinRel,
    Gate,
    StaticMinRel,
    StoppingConfig,
    checkpoints,
    run_stopping,
    stop_decision,
)

from conftest import topic_from_labels


def exp_topic(seed=42, n=5000, a=0.5, b=-0.01):
    return generate_synthetic(
        SyntheticSpec(n=n, kind="exponential", params={"a": a, "b": b}, seed=seed)
    )


class TestDefaults:
    def test_tuned_values(self):
        cfg = StoppingConfig()
        assert cfg.alpha == 0.025
        assert cfg.beta == 0.025
        assert cfg.nrmse_threshold == 0.1
        assert cfg.confidence == 0.95
        assert cfg.process is ProcessKind.INHOMOGENEOUS_POISSON
        assert cfg.rate_kind is RateKind.HYPERBOLIC
        assert isinstance(cfg.min_rel_rule, DynamicMinRel)
        assert cfg.window_size == 25
        assert cfg.batch_schedule is BatchSchedule.UNIFORM_FRACTION

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            StoppingConfig(target_recall=0.0)
        with pytest.raises(ConfigError):
            StoppingConfig(target_recall=1.5)
        with pytest.raises(ConfigError):
            StoppingConfig(confidence=1.0)
        with pytest.raises(ConfigError):
            StoppingConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            StoppingConfig(beta=-0.1)
        with pytest.raises(ConfigError):
            StoppingConfig(nrmse_threshold=0.0)
        with pytest.raises(ConfigError):
            StaticMinRel(0)

    @pytest.mark.parametrize("grid", [1, 2, 8, 163, 165])
    def test_cox_grid_must_be_odd_within_budget(self, grid):
        with pytest.raises(ConfigError):
            StoppingConfig(cox_grid=grid)

    def test_cox_grid_range_ends_accepted(self):
        assert StoppingConfig(cox_grid=3).cox_grid == 3
        assert StoppingConfig(cox_grid=161).cox_grid == 161


class TestCheckpoints:
    def test_uniform_fraction(self):
        cfg = StoppingConfig(alpha=0.025, beta=0.025)
        points = checkpoints(1000, cfg)
        assert points[0] == 25
        assert points[1] - points[0] == 25
        assert points[-1] < 1000
        assert len(points) <= math.ceil((1 - 0.025) / 0.025) + 1

    def test_uniform_fraction_ceil_rounding(self):
        cfg = StoppingConfig(alpha=0.025, beta=0.025)
        points = checkpoints(101, cfg)  # ceil(2.525) = 3
        assert points[0] == 3
        assert all(b - a == 3 for a, b in zip(points, points[1:]))

    def test_fraction_float_noise_absorbed(self):
        # 0.07 * 100 is 7.000000000000001; a bare ceiling would give 8
        cfg = StoppingConfig(alpha=0.07, beta=0.07)
        assert checkpoints(100, cfg) == list(range(7, 100, 7))

    def test_tiny_fraction_still_steps_one_rank(self):
        cfg = StoppingConfig(alpha=1e-12, beta=1e-12)
        assert checkpoints(10, cfg) == list(range(1, 10))

    def test_alpha_covering_everything(self):
        cfg = StoppingConfig(alpha=1.0)
        assert checkpoints(400, cfg) == []

    def test_autotar_batches_grow(self):
        cfg = StoppingConfig(alpha=0.0001, beta=0.025, batch_schedule=BatchSchedule.AUTOTAR)
        points = checkpoints(10000, cfg)
        assert points[:6] == [1, 3, 6, 10, 15, 21]
        gaps = np.diff(points)
        assert np.all(np.diff(gaps) >= 0)
        assert points[-1] < 10000

    def test_autotar_defers_until_initial_fraction(self):
        cfg = StoppingConfig(alpha=0.025, beta=0.025, batch_schedule=BatchSchedule.AUTOTAR)
        points = checkpoints(10000, cfg)
        assert points[0] >= 250


class TestGates:
    def test_no_relevant_runs_to_end(self):
        topic = topic_from_labels([0] * 2000)
        out = run_stopping(topic, StoppingConfig())
        assert out.hit_end
        assert out.stop_rank == 2000
        assert out.rel_found == 0
        assert all(t.gate is Gate.TOO_FEW_RELEVANT for t in out.traces)

    def test_static_rule_blocks_until_threshold(self):
        labels = [1] * 15 + [0] * 985
        topic = topic_from_labels(labels)
        cfg = StoppingConfig(min_rel_rule=StaticMinRel(20), rate_kind=RateKind.EXPONENTIAL)
        out = run_stopping(topic, cfg)
        assert all(t.gate is Gate.TOO_FEW_RELEVANT for t in out.traces)
        assert out.hit_end

    def test_dynamic_rule_relaxes_with_progress(self):
        rule = DynamicMinRel()
        assert not rule.passes(10, 100, 1000)  # needs 18
        assert rule.passes(10, 600, 1000)  # needs 8
        assert rule.passes(1, 999, 1000)

    def test_window_shortfall_reported_as_fit_failure(self):
        labels = ([1] * 30 + [0] * 70) * 2
        topic = topic_from_labels(labels)
        cfg = StoppingConfig(
            alpha=0.05, beta=0.05, window_size=150,
            min_rel_rule=StaticMinRel(1), rate_kind=RateKind.EXPONENTIAL,
        )
        out = run_stopping(topic, cfg)
        assert any(t.gate is Gate.FIT_FAILED for t in out.traces)

    def test_nrmse_gate_records_curve(self):
        topic = exp_topic(seed=11)
        cfg = StoppingConfig(rate_kind=RateKind.EXPONENTIAL, nrmse_threshold=1e-9)
        out = run_stopping(topic, cfg)
        rejected = [t for t in out.traces if t.gate is Gate.NRMSE_REJECTED]
        assert rejected and all(t.curve is not None for t in rejected)
        assert all(t.estimate is None for t in rejected)
        assert out.hit_end

    def test_estimate_present_iff_evaluated(self):
        topic = exp_topic(seed=3)
        out = run_stopping(topic, StoppingConfig(rate_kind=RateKind.EXPONENTIAL))
        for t in out.traces:
            assert (t.estimate is not None) == (t.gate is Gate.EVALUATED)
            assert (t.total_estimate is not None) == (t.gate is Gate.EVALUATED)


class TestStopRule:
    def test_synthetic_exponential_reaches_target(self):
        topic = exp_topic(seed=42)
        cfg = StoppingConfig(target_recall=0.9, rate_kind=RateKind.EXPONENTIAL)
        out = run_stopping(topic, cfg)
        assert out.stop_rank < topic.n
        assert out.rel_found / topic.total_relevant >= 0.9

    def test_stop_condition_soundness(self):
        topic = exp_topic(seed=7)
        cfg = StoppingConfig(target_recall=0.8, rate_kind=RateKind.EXPONENTIAL)
        out = run_stopping(topic, cfg)
        stops = [t for t in out.traces if t.stop_decision]
        assert len(stops) == 1
        final = stops[-1]
        assert final.rel_found >= math.ceil(0.8 * final.total_estimate)

    def test_full_recall_with_zero_upper_bound(self):
        # relevant documents all up front; estimate for the tail hits zero
        labels = [1] * 30 + [0] * 2970
        topic = topic_from_labels(labels)
        cfg = StoppingConfig(
            target_recall=1.0, rate_kind=RateKind.EXPONENTIAL,
            min_rel_rule=StaticMinRel(10), nrmse_threshold=0.3,
        )
        out = run_stopping(topic, cfg)
        assert not out.hit_end
        final = out.traces[-1]
        assert final.estimate.upper_bound == 0
        assert out.rel_found == final.total_estimate == 30

    def test_ceiling_robust_to_float_noise(self):
        # 0.07 * 100 = 7.000000000000001 in floats; exact arithmetic says
        # 7 found of an estimated 100 meets a 0.07 target
        assert stop_decision(7, 100.0, 0.07)
        assert not stop_decision(6, 100.0, 0.07)
        # every two-decimal target against integer estimates must agree
        # with exact rational arithmetic
        for hundredths in range(1, 101):
            level = hundredths / 100
            for total in range(1, 400):
                exact_required = -(-hundredths * total // 100)  # ceil
                assert stop_decision(exact_required, float(total), level)
                if exact_required > 0:
                    assert not stop_decision(exact_required - 1, float(total), level)

    def test_confidence_never_hastens_stop(self):
        topic = exp_topic(seed=21)
        ranks = []
        for p in (0.5, 0.8, 0.95, 0.99):
            cfg = StoppingConfig(
                target_recall=0.9, confidence=p, rate_kind=RateKind.EXPONENTIAL
            )
            ranks.append(run_stopping(topic, cfg).stop_rank)
        assert ranks == sorted(ranks)


class TestOutcomeShape:
    def test_traces_monotone(self):
        topic = exp_topic(seed=5)
        out = run_stopping(topic, StoppingConfig(rate_kind=RateKind.EXPONENTIAL))
        ks = [t.k for t in out.traces]
        rels = [t.rel_found for t in out.traces]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
        assert rels == sorted(rels)

    def test_examined_equals_stop_rank(self):
        topic = exp_topic(seed=5)
        out = run_stopping(topic, StoppingConfig(rate_kind=RateKind.EXPONENTIAL))
        assert out.docs_examined == out.stop_rank <= topic.n

    def test_determinism(self):
        topic = exp_topic(seed=17)
        cfg = StoppingConfig(rate_kind=RateKind.HYPERBOLIC)
        assert run_stopping(topic, cfg) == run_stopping(topic, cfg)

    def test_cox_runs_end_to_end(self):
        topic = exp_topic(seed=23, n=3000)
        cfg = StoppingConfig(
            process=ProcessKind.COX, rate_kind=RateKind.EXPONENTIAL, target_recall=0.9
        )
        out = run_stopping(topic, cfg)
        assert out.method == "cox"
        evaluated = [t for t in out.traces if t.gate is Gate.EVALUATED]
        assert evaluated

    def test_cox_fallback_flag_on_singular_fit(self):
        # exactly three windows at the first checkpoint, hyperbolic rate:
        # three points fit three parameters, leaving no residual dof
        block = [1, 1, 1, 0, 0] * 5 + [1, 0, 0, 0, 0] * 5 + [1, 0, 0, 0, 1, 0, 0, 0, 0, 0] * 2 + [0] * 5
        labels = block + [0] * (3000 - len(block))
        topic = topic_from_labels(labels)
        cfg = StoppingConfig(
            process=ProcessKind.COX, rate_kind=RateKind.HYPERBOLIC,
            min_rel_rule=StaticMinRel(10), nrmse_threshold=0.5,
        )
        out = run_stopping(topic, cfg)
        first_eval = next(t for t in out.traces if t.gate is Gate.EVALUATED)
        assert first_eval.curve.points_used == 3
        assert first_eval.estimate.fallback

    def test_small_collection_exhausts(self):
        topic = topic_from_labels([1, 0, 1])
        out = run_stopping(topic, StoppingConfig())
        assert out.hit_end and out.stop_rank == 3 and out.rel_found == 2

    def test_autotar_schedule_runs(self):
        topic = exp_topic(seed=29, n=4000)
        cfg = StoppingConfig(
            rate_kind=RateKind.EXPONENTIAL, batch_schedule=BatchSchedule.AUTOTAR,
            target_recall=0.9,
        )
        out = run_stopping(topic, cfg)
        assert out.rel_found / topic.total_relevant >= 0.9
        ks = [t.k for t in out.traces]
        assert ks[0] >= math.ceil(0.025 * topic.n)


class TestRankingEffectivenessTrend:
    def test_reliability_declines_with_ranking_quality(self):
        # Shift relevant mass from a steep head into a late-ranking bump
        # the screened prefix cannot see: the ranking gets less effective
        # and the fitted curve underestimates what remains, so stops come
        # too early. Reliability must not trend upward as effectiveness
        # degrades (Spearman sign check).
        from scipy import stats as sstats

        from tarstop.metrics import ranking_effectiveness

        rng = np.random.default_rng(20231001)
        n = 4000
        x = np.arange(1, n + 1)
        weights = [1.0, 0.7, 0.4, 0.1]
        reliabilities = []
        effectiveness = []
        cfg = StoppingConfig(target_recall=0.9, rate_kind=RateKind.HYPERBOLIC)
        for w in weights:
            hits = 0
            areas = []
            for _ in range(8):
                probs = w * 0.6 * np.exp(-0.015 * x)
                probs[3000:] += (1.0 - w) * 0.03  # hidden late-tail relevance
                topic = topic_from_labels(rng.random(n) < probs)
                areas.append(ranking_effectiveness(topic))
                out = run_stopping(topic, cfg)
                if out.rel_found / topic.total_relevant >= 0.9:
                    hits += 1
            reliabilities.append(hits / 8)
            effectiveness.append(float(np.mean(areas)))
        assert effectiveness == sorted(effectiveness, reverse=True)
        rho = sstats.spearmanr(effectiveness, reliabilities).statistic
        assert rho >= 0.0  # reliability falls (or holds) as rankings worsen
        assert reliabilities[0] > reliabilities[-1]


class TestFitMemo:
    def test_shared_memo_matches_memo_free_runs(self):
        # a declining topic, and one where every document is relevant, so
        # every fit there fails on its zero observed range
        topics = [exp_topic(seed=31, n=800, a=0.4, b=-0.008),
                  topic_from_labels([1] * 200)]
        configs = [
            StoppingConfig(
                process=process, rate_kind=rate, min_rel_rule=rule,
                batch_schedule=schedule, alpha=0.1, beta=0.1, window_size=window,
                nrmse_threshold=0.3,
            )
            for process in ProcessKind
            for rate in RateKind
            for rule in (StaticMinRel(10), DynamicMinRel())
            for schedule in BatchSchedule
            for window in (10, 20)
        ]
        for topic in topics:
            for cfg in configs:
                fresh = RankedTopic(topic.topic_id, topic.labels)
                assert run_stopping(topic, cfg) == run_stopping(fresh, cfg)
            assert {key[0] for key in topic._fits} == set(RateKind)
        assert all(isinstance(fit, TarStopError) for fit in topic._fits.values())

    def test_second_run_fits_nothing(self, monkeypatch):
        topic = exp_topic(seed=31, n=800, a=0.4, b=-0.008)
        cfg = StoppingConfig(rate_kind=RateKind.EXPONENTIAL, alpha=0.1, beta=0.1)
        first = run_stopping(topic, cfg)
        calls = []

        def counting_fit(*args):
            calls.append(args)
            return fit_rate(*args)

        monkeypatch.setattr(stopping, "fit_rate", counting_fit)
        cox = StoppingConfig(
            rate_kind=RateKind.EXPONENTIAL, alpha=0.1, beta=0.1, process=ProcessKind.COX
        )
        assert run_stopping(topic, cfg) == first
        run_stopping(topic, cox)
        assert calls == []
        run_stopping(RankedTopic(topic.topic_id, topic.labels), cfg)
        assert calls  # a new topic fits afresh
