"""Compare stopping methods on a small synthetic collection.

Run with:  python3 demos/method_comparison.py
"""

import numpy as np

import tarstop as ts

TARGET_RECALL = 0.9
CONFIDENCE = 0.95
BASE_SEED = 7


def build_collection(n_topics=12):
    meta = np.random.default_rng(BASE_SEED)
    topics = []
    for i in range(n_topics):
        a = float(meta.uniform(0.3, 0.8))
        b = -a / float(meta.uniform(80, 300))
        spec = ts.SyntheticSpec(
            n=int(meta.integers(2000, 6001)),
            kind="exponential",
            params={"a": a, "b": b},
            seed=int(meta.integers(0, 2**32)),
            topic_id=f"D{i:02d}",
        )
        topics.append(ts.generate_synthetic(spec))
    return topics


def run_all(topics):
    results = {}
    config = ts.StoppingConfig(
        target_recall=TARGET_RECALL, confidence=CONFIDENCE,
        rate_kind=ts.RateKind.EXPONENTIAL,
    )
    results["counting (ip)"] = [ts.run_stopping(t, config) for t in topics]
    results["oracle"] = [ts.oracle_stop(t, TARGET_RECALL) for t in topics]

    size = ts.adapted_target_size(TARGET_RECALL, CONFIDENCE)
    results[f"target (t={size})"] = [
        ts.target_stop(t, ts.TargetConfig(target_size=size, seed=BASE_SEED + i))
        for i, t in enumerate(topics)
    ]
    results["knee"] = [ts.knee_stop(t, ts.KneeConfig(), config) for t in topics]
    return results


def main():
    topics = build_collection()
    sizes = ", ".join(str(t.n) for t in topics[:5])
    print(f"{len(topics)} synthetic topics (first sizes: {sizes}, ...)")
    print(f"target recall {TARGET_RECALL}, confidence {CONFIDENCE}\n")

    by_topic = {t.topic_id: t for t in topics}
    print(f"{'method':<16} {'reliability':>11} {'recall':>14} {'cost':>14}")
    for name, outcomes in run_all(topics).items():
        tms = [
            ts.topic_metrics(o, by_topic[o.topic_id], TARGET_RECALL)
            for o in outcomes
        ]
        agg = ts.aggregate(tms)
        print(f"{name:<16} {agg.reliability:>11.2f} "
              f"{agg.recall.mean:>7.3f}±{agg.recall.std:.3f} "
              f"{agg.cost.mean:>7.3f}±{agg.cost.std:.3f}")

    print("\nReading the table: the oracle is the per-ranking minimum cost;")
    print("the counting method should sit between it and the samplers, and")
    print("reliability reports how often the target recall was reached.")
    print("\nThe equivalent CLI run:")
    print("  tarstop simulate --spec specs.json --methods ip,oracle,target,knee \\")
    print("      --rate exp --target-recall 0.9 --format csv --output results.csv")


if __name__ == "__main__":
    main()
