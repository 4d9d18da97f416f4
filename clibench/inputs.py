"""Input generation: writes a workload's input variants and their labels.

    python3 clibench/inputs.py <workload> <seed> <work-dir>

writes each variant into ``<work-dir>/v<i>/`` (a TREC run and qrels, or a
simulate spec) with the labels the checks rely on in ``truth.npz``.

The relevance probability at rank x is the hyperbolic rate of the paper's
family, a / (1 + b*c*x)**(1/b), plus a uniform background share ``bg`` of
relevant documents scattered down the whole ranking (the part a poor ranking
leaves behind). Labels are Bernoulli draws of that probability. The topic
shapes are in ``workloads.py``; variant ``v`` of seed ``s`` is drawn from
the key ``[s, v]``.

Nothing here imports the program: the labels the checks rely on are the
benchmark's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from workloads import DEEP_N, DEEP_SLOTS, GRID_N, GRID_SLOTS, SIM_N, SIM_SLOTS, VARIANTS

RUN_TAG = "clibench"


def hyperbolic(x: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    return a * (1.0 + b * c * x) ** (-1.0 / b)


def _ranked_labels(key: list[int], slot: int, n: int, a, b, c, bg) -> np.ndarray:
    rng = np.random.default_rng([*key, slot])
    x = np.arange(1, n + 1, dtype=float)
    p = np.clip(hyperbolic(x, a, b, c) + bg, 0.0, 1.0)
    return rng.random(n) < p


def _write_run_qrels(key: list[int], topics: dict[str, np.ndarray], work: Path) -> None:
    """TREC run (rank order) and qrels (relevant docs, graded 1 or 2, plus
    every fourth non-relevant doc judged 0) for the labelled rankings."""
    run_lines = []
    qrels_lines = []
    for slot, (tid, labels) in enumerate(topics.items()):
        n = labels.size
        rng = np.random.default_rng([*key, slot, 1])
        doc_nums = rng.permutation(n)
        grades = rng.integers(1, 3, size=n)
        for r in range(n):
            doc = f"{tid}-{doc_nums[r]:06d}"
            run_lines.append(f"{tid} Q0 {doc} {r + 1} {1.0 - (r + 1) / (n + 1):.7f} {RUN_TAG}")
            if labels[r]:
                qrels_lines.append(f"{tid} 0 {doc} {grades[r]}")
            elif r % 4 == 3:
                qrels_lines.append(f"{tid} 0 {doc} 0")
    (work / "run.txt").write_text("\n".join(run_lines) + "\n", encoding="utf-8")
    (work / "qrels.txt").write_text("\n".join(qrels_lines) + "\n", encoding="utf-8")


def spec_topics(key: list[int]) -> list[dict]:
    """The simulate spec: one entry per slot, topic seeds drawn from ``key``."""
    seeds = np.random.default_rng(key).integers(1, 2**31, size=len(SIM_SLOTS))
    return [
        {
            "topic_id": f"C{i + 1:02d}",
            "n": SIM_N,
            "kind": "hyperbolic",
            "params": {"a": a, "b": b, "c": c},
            "seed": int(s),
            "noise": noise,
        }
        for i, ((a, b, c, noise), s) in enumerate(zip(SIM_SLOTS, seeds))
    ]


def spec_labels(entry: dict) -> np.ndarray:
    """Labels the spec format defines: Bernoulli(min(1, rate)) draws from a
    Philox generator seeded with the topic seed, then independent flips with
    probability ``noise`` from the same stream."""
    n = entry["n"]
    p = entry["params"]
    x = np.arange(1, n + 1, dtype=float)
    probs = np.clip(hyperbolic(x, p["a"], p["b"], p["c"]), 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(entry["seed"]))
    labels = rng.random(n) < probs
    if entry["noise"] > 0.0:
        labels ^= rng.random(n) < entry["noise"]
    return labels


def build(name: str, seed: int, variant: int, work: Path) -> dict[str, np.ndarray]:
    """Write one input variant's files into ``work``; return topic labels."""
    key = [seed, variant]
    if name == "simulate_cox":
        entries = spec_topics(key)
        (work / "spec.json").write_text(json.dumps({"topics": entries}, indent=1), encoding="utf-8")
        return {e["topic_id"]: spec_labels(e) for e in entries}
    if name == "stop_deep":
        n, slots, prefix = DEEP_N, DEEP_SLOTS, "TR"
    elif name == "sweep_grid":
        n, slots, prefix = GRID_N, GRID_SLOTS, "MG"
    else:
        raise ValueError(f"unknown workload {name!r}")
    topics = {
        f"{prefix}{i + 1:02d}": _ranked_labels(key, i, n, *slot)
        for i, slot in enumerate(slots)
    }
    _write_run_qrels(key, topics, work)
    return topics


def main(argv: list[str]) -> int:
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    for variant in range(VARIANTS[name]):
        vdir = work / f"v{variant}"
        vdir.mkdir(exist_ok=True)
        np.savez(vdir / "truth.npz", **build(name, seed, variant, vdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
