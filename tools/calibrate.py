"""Calibration table of the count bound on synthetic topics with known truth.

    PYTHONPATH=src python3 tools/calibrate.py [--output table.json]

For each process (ip, cox) and rate family (exponential, hyperbolic, power
law, ap_prior), the script runs the screening loop over a fixed set of
generated topics and reports, per effectiveness bucket (the topic's
normalized area under its recall curve, ``ranking_effectiveness``):

  coverage              share of evaluated checkpoints whose upper bound is
                        at least the true count of relevant documents left
  mean_remaining_error  mean over topics of ``metrics.mean_remaining_error``
                        (the bound's signed relative error; topics with no
                        qualifying checkpoint are left out)

The topics cover every generator shape, clean and with label noise, so each
family meets data of its own shape and of the others. The target recall is
0.99 so that runs screen deep and most checkpoints are evaluated; the other
settings are the library defaults (confidence 0.95). Everything is seeded,
so the output is the same on every run of the same code. It takes about
8 s on a 2-core x86-64 host; it is not part of the test suite.

The table of this checkout is ``tools/calibration_table.json``. A change
that moves it regenerates that file, so the diff shows its effect; CI
builds the table afresh and diffs it against the file. Every value in it
comes from integer bounds and counts, so a last-bit change in a fit moves
it only at a tie.
"""

from __future__ import annotations

import argparse
import json
import sys

import tarstop as ts

N = 3000
SEEDS = (1, 2)
NOISES = (0.0, 0.003)
SHAPES = {  # generator kind -> three shapes, steep to shallow
    "exponential": [{"a": 0.8, "b": -0.01}, {"a": 0.5, "b": -0.003}, {"a": 0.3, "b": -0.001}],
    "hyperbolic": [
        {"a": 0.9, "b": 0.5, "c": 0.02},
        {"a": 0.6, "b": 0.6, "c": 0.006},
        {"a": 0.4, "b": 0.8, "c": 0.002},
    ],
    "power": [{"a": 1.0, "b": -0.8}, {"a": 0.6, "b": -0.5}, {"a": 0.4, "b": -0.3}],
    "ap_prior": [{"a": 200.0}, {"a": 100.0}, {"a": 50.0}],
}
# normalized-area buckets, lower edges inclusive
BUCKETS = (("poor", 0.0, 0.75), ("middling", 0.75, 0.9), ("good", 0.9, 1.01))
TARGET_RECALL = 0.99


def topics(seeds=SEEDS, noises=NOISES) -> list[ts.RankedTopic]:
    out = []
    for kind, shapes in SHAPES.items():
        for i, params in enumerate(shapes):
            for noise in noises:
                for seed in seeds:
                    spec = ts.SyntheticSpec(
                        n=N, kind=kind, params=params, seed=seed, noise=noise,
                        topic_id=f"{kind}-{i}-{noise}-{seed}",
                    )
                    out.append(ts.generate_synthetic(spec))
    return out


def bucket_of(topic: ts.RankedTopic) -> str:
    area = ts.ranking_effectiveness(topic)
    return next(name for name, lo, hi in BUCKETS if lo <= area < hi)


def _row(process: str, family: str, bucket: str, runs) -> dict:
    covered = evaluated = 0
    errors = []
    for topic, outcome in runs:
        for trace in outcome.traces:
            if trace.gate is ts.Gate.EVALUATED:
                evaluated += 1
                remaining = topic.total_relevant - trace.rel_found
                covered += trace.estimate.upper_bound >= remaining
        error = ts.mean_remaining_error(outcome, topic)
        if error is not None:
            errors.append(error)
    return {
        "process": process,
        "family": family,
        "bucket": bucket,
        "topics": len(runs),
        "checkpoints": evaluated,
        "coverage": covered / evaluated if evaluated else None,
        "mean_remaining_error": sum(errors) / len(errors) if errors else None,
    }


def rows(pool: list[ts.RankedTopic], families=tuple(ts.RateKind)) -> list[dict]:
    """One row per process, family and bucket (and "all") over ``pool``."""
    bucketed = [(bucket_of(t), t) for t in pool]
    out = []
    for process in ts.ProcessKind:
        for family in families:
            config = ts.StoppingConfig(
                target_recall=TARGET_RECALL, process=process, rate_kind=family
            )
            runs = [(b, t, ts.run_stopping(t, config)) for b, t in bucketed]
            for name, _lo, _hi in BUCKETS:
                picked = [(t, o) for b, t, o in runs if b == name]
                out.append(_row(process.value, family.value, name, picked))
            out.append(_row(process.value, family.value, "all", [(t, o) for _b, t, o in runs]))
    return out


def table() -> dict:
    return {
        "settings": {
            "n": N, "seeds": list(SEEDS), "noises": list(NOISES), "shapes": SHAPES,
            "buckets": [list(b) for b in BUCKETS], "target_recall": TARGET_RECALL,
            "confidence": ts.StoppingConfig().confidence,
        },
        "rows": rows(topics()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="write the JSON table here (default: stdout)")
    args = parser.parse_args(argv)
    text = json.dumps(table(), indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
