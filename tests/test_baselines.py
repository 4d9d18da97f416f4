"""Oracle, target-sampling, and knee baselines."""

import numpy as np
import pytest

from tarstop.baselines import (
    KneeConfig,
    TargetConfig,
    _knee_candidate,
    adapted_target_size,
    knee_stop,
    oracle_stop,
    target_stop,
)
from tarstop.corpus import SyntheticSpec, generate_synthetic
from tarstop.errors import ConfigError
from tarstop.stopping import BatchSchedule, StoppingConfig, checkpoints

from conftest import topic_from_labels


class TestOracle:
    def test_granularity_example(self):
        # four relevant, target 0.75: ceil(3) = 3rd relevant at rank 3
        labels = np.zeros(20, dtype=bool)
        labels[[0, 1, 2, 9]] = True
        out = oracle_stop(topic_from_labels(labels), 0.75)
        assert out.stop_rank == 3
        assert out.rel_found == 3

    def test_eleven_relevant_at_eighty_percent(self):
        # stops after ceil(0.8 * 11) = 9 relevant; recall ~ 0.818
        labels = np.zeros(200, dtype=bool)
        labels[np.arange(0, 110, 10)] = True  # 11 relevant
        topic = topic_from_labels(labels)
        out = oracle_stop(topic, 0.8)
        assert out.rel_found == 9
        assert out.rel_found / topic.total_relevant == pytest.approx(9 / 11, abs=1e-9)

    def test_full_recall_stops_at_last_relevant(self):
        labels = np.zeros(300, dtype=bool)
        labels[[5, 50, 217]] = True
        out = oracle_stop(topic_from_labels(labels), 1.0)
        assert out.stop_rank == 218

    def test_no_relevant_is_vacuous(self):
        out = oracle_stop(topic_from_labels(np.zeros(50, dtype=bool)), 0.9)
        assert out.stop_rank == 1
        assert out.rel_found == 0

    def test_minimality(self, rng):
        # no earlier rank reaches the target on the same ranking
        cases = [(rng.random(int(rng.integers(20, 400))) < 0.1, float(rng.uniform(0.3, 1.0)))
                 for _ in range(25)]
        # targets whose product with the total misses an integer by float
        # noise: 0.28 * 25 is 7.000000000000001, yet 7 relevant reach 0.28
        for level, total in ((0.28, 25), (0.55, 100), (0.56, 25)):
            cases.append((np.arange(2 * total) % 2 == 0, level))
        for labels, level in cases:
            if not labels.any():
                continue
            topic = topic_from_labels(labels)
            out = oracle_stop(topic, level)
            total = topic.total_relevant
            assert out.rel_found / total >= level
            if out.stop_rank > 1:
                before = topic.relevant_in_prefix(out.stop_rank - 1)
                assert before / total < level


class TestAdaptedTargetSize:
    def test_published_values(self):
        assert adapted_target_size(0.7, 0.95) == 10
        assert adapted_target_size(0.9, 0.95) == 30
        assert adapted_target_size(0.99, 0.95) == 300

    def test_monotone_in_recall_and_confidence(self, rng):
        for _ in range(50):
            level = float(rng.uniform(0.5, 0.98))
            conf = float(rng.uniform(0.5, 0.99))
            t = adapted_target_size(level, conf)
            assert adapted_target_size(min(level + 0.01, 0.995), conf) >= t
            assert adapted_target_size(level, min(conf + 0.005, 0.995)) >= t

    def test_domain_error_at_full_recall(self):
        with pytest.raises(ValueError, match="0.99"):
            adapted_target_size(1.0, 0.95)


class TestTargetStop:
    def test_single_relevant_anchors_stop(self, rng):
        for _ in range(10):
            n = int(rng.integers(50, 500))
            pos = int(rng.integers(0, n))
            labels = np.zeros(n, dtype=bool)
            labels[pos] = True
            out = target_stop(
                topic_from_labels(labels), TargetConfig(target_size=1, seed=int(rng.integers(1 << 32)))
            )
            assert out.stop_rank == pos + 1
            assert out.rel_found == 1

    def test_insufficient_relevant_exhausts(self):
        out = target_stop(
            topic_from_labels(np.zeros(80, dtype=bool)), TargetConfig(target_size=1, seed=3)
        )
        assert out.hit_end and out.stop_rank == 80 and out.docs_examined == 80

    def test_determinism(self):
        topic = generate_synthetic(
            SyntheticSpec(n=3000, kind="uniform", params={"a": 0.05}, seed=55)
        )
        cfg = TargetConfig(target_size=10, seed=99)
        assert target_stop(topic, cfg) == target_stop(topic, cfg)

    def test_cost_counts_unique_documents(self):
        topic = generate_synthetic(
            SyntheticSpec(n=3000, kind="uniform", params={"a": 0.05}, seed=56)
        )
        out = target_stop(topic, TargetConfig(target_size=10, seed=17))
        assert out.stop_rank <= out.docs_examined <= topic.n

    @pytest.mark.parametrize("n", [40, 700, 5000])
    @pytest.mark.parametrize("target_size", [1, 3, 25])
    def test_cost_is_the_union_of_sample_and_prefix(self, n, target_size):
        # replay the draw and count the sampled ranks and the prefix as sets
        for seed in range(5):
            topic = generate_synthetic(
                SyntheticSpec(n=n, kind="uniform", params={"a": 0.1}, seed=seed)
            )
            out = target_stop(topic, TargetConfig(target_size=target_size, seed=seed))
            order = np.random.Generator(np.random.Philox(seed)).permutation(n)
            hits = np.flatnonzero(topic.labels[order])
            if hits.size < target_size:
                assert out.docs_examined == n
                continue
            sampled = order[: hits[target_size - 1] + 1]
            union = np.union1d(sampled, np.arange(out.stop_rank))
            assert out.docs_examined == union.size

    def test_recall_guarantee_monte_carlo(self):
        # Appendix-style check: over many seeds, recall >= 0.7 must hold
        # in roughly 95% of runs when the target size comes from
        # (0.7, 0.95); allow Monte-Carlo slack down to 94%.
        topic = generate_synthetic(
            SyntheticSpec(n=10000, kind="uniform", params={"a": 0.02}, seed=7)
        )
        total = topic.total_relevant
        size = adapted_target_size(0.7, 0.95)
        hits = 0
        runs = 1000
        for seed in range(runs):
            out = target_stop(topic, TargetConfig(target_size=size, seed=seed))
            if out.rel_found / total >= 0.7:
                hits += 1
        assert hits / runs >= 0.94

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TargetConfig(target_size=0, seed=1)

    @pytest.mark.parametrize("fields, message", [
        # each raised outside the package's errors: IndexError, numpy's
        # ValueError, TypeError
        ({"target_size": 2.5, "seed": 1}, "target_size must be an integer, got 2.5"),
        ({"target_size": 10, "seed": -1}, "seed must be >= 0, got -1"),
        ({"target_size": 10, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"target_size": True, "seed": 1}, "target_size must be an integer, got True"),
    ])
    def test_integer_fields(self, fields, message):
        with pytest.raises(ConfigError) as err:
            TargetConfig(**fields)
        assert str(err.value) == message

    def test_numpy_integers_accepted(self):
        topic = topic_from_labels(np.ones(20, dtype=bool))
        cfg = TargetConfig(target_size=np.int64(3), seed=np.uint32(5))
        assert target_stop(topic, cfg) == target_stop(topic, TargetConfig(3, 5))


class TestKneeStop:
    def test_sharp_knee_ratio(self):
        # 20 relevant up front then flat: at k = 500 the knee sits at 20
        # and the slope ratio is (20/20) / (1/480) = 480
        labels = np.zeros(500, dtype=bool)
        labels[:20] = True
        gain = np.cumsum(labels.astype(float))
        knee = _knee_candidate(gain)
        assert knee == 20
        rise = gain[knee - 1] / knee
        tail = (gain[-1] - gain[knee - 1] + 1.0) / (500 - knee)
        assert rise / tail == pytest.approx(480.0, rel=1e-12)
        out = knee_stop(topic_from_labels(labels), KneeConfig())
        assert not out.hit_end
        assert out.rel_found == 20

    def test_uniform_labels_never_stop(self):
        # every 10th document relevant: no pronounced knee anywhere
        labels = np.zeros(2000, dtype=bool)
        labels[9::10] = True
        out = knee_stop(topic_from_labels(labels), KneeConfig())
        assert out.hit_end
        assert out.stop_rank == 2000

    def test_uniform_labels_ratio_stays_low(self):
        # brute-force the ratio at every candidate split of the full curve
        labels = np.zeros(2000, dtype=bool)
        labels[9::10] = True
        gain = np.cumsum(labels.astype(float))
        k = gain.size
        ratios = []
        for r in range(1, k):
            rise = gain[r - 1] / r
            tail = (gain[-1] - gain[r - 1] + 1.0) / (k - r)
            ratios.append(rise / tail)
        assert max(ratios) < 6.0

    def test_all_relevant_prefix_guard(self):
        out = knee_stop(topic_from_labels(np.ones(400, dtype=bool)), KneeConfig())
        assert out.hit_end  # straight-line gain has no knee to trigger

    def test_never_stops_without_relevant(self):
        out = knee_stop(topic_from_labels(np.zeros(500, dtype=bool)), KneeConfig())
        assert out.hit_end and out.rel_found == 0

    def test_higher_threshold_stops_later(self):
        labels = np.zeros(2000, dtype=bool)
        labels[:40] = True
        labels[40:400:9] = True
        topic = topic_from_labels(labels)
        lax = knee_stop(topic, KneeConfig(rho_threshold=3.0))
        strict = knee_stop(topic, KneeConfig(rho_threshold=50.0))
        assert lax.stop_rank <= strict.stop_rank

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            KneeConfig(rho_threshold=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "batch_schedule"])
    def test_schedule_is_not_a_field(self, field):
        # the checkpoints come from the StoppingConfig given to knee_stop
        with pytest.raises(TypeError):
            KneeConfig(**{field: 0.05})

    def test_checkpoints_follow_the_screening_schedule(self):
        # 20 relevant, then none: at checkpoint k the ratio at the knee is
        # (20 / 20) / (1 / (k - 20)), which reaches 6 from k = 26 on, so
        # each schedule stops at its first checkpoint from 26
        labels = np.zeros(500, dtype=bool)
        labels[:20] = True
        topic = topic_from_labels(labels)
        for screening, stop in [
            (StoppingConfig(), 26),  # 13, 26, ...
            (StoppingConfig(alpha=0.05, beta=0.05), 50),  # 25, 50, ...
            (StoppingConfig(alpha=0.05, beta=0.05, batch_schedule=BatchSchedule.AUTOTAR), 28),
        ]:
            assert min(k for k in checkpoints(500, screening) if k >= 26) == stop
            assert knee_stop(topic, KneeConfig(), screening).stop_rank == stop
        assert knee_stop(topic, KneeConfig()).stop_rank == 26  # the default schedule
