"""Workload definitions: the topic ladders, the CLI settings the checks rely
on, and each execution's arguments.

Each topic has a fixed shape (a "slot" in a ladder from good to poor
rankings); the seed changes only the random draws (see ``inputs.py``), so
the amount of work per execution stays about the same from seed to seed
while the labels, and so the stopping decisions, change.

A workload has one or more input variants, drawn from (seed, variant), and a
run cycles through them. Where the work an execution does swings with the
random labels (how many checkpoints pass the NRMSE gate, where a method
stops), several variants per run average that swing out of the run's median.

This module uses the standard library only, so that ``run.py``, which
imports it, stays small: a child's peak resident set, as the kernel reports
it, is never below the size of the process it was started from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

# CLI defaults the checks rely on: alpha = beta = 0.025, target 0.9,
# confidence 0.95, NRMSE gate 0.1, dynamic min-rel rule.
ALPHA = "0.025"
TARGET = "0.9"
CONFIDENCE = 0.95
NRMSE_THRESHOLD = 0.1

# stop_deep: four rankings of 100k documents (TREC Total Recall scale) of
# middling effectiveness, so the default method screens deep (35-75% of the
# ranking) and most of the time goes to parsing, joining and windowing.
DEEP_N = 100_000
DEEP_SLOTS = (  # (a, b, c, bg)
    (0.35, 0.85, 3.0e-4, 0.0029),
    (0.31, 0.56, 7.0e-4, 0.0010),
    (0.39, 0.83, 6.0e-4, 0.0023),
    (0.32, 0.60, 7.0e-4, 0.0015),
)

# sweep_grid: mid-sized topics, good to middling rankings, swept over every
# rate family and two values of each policy knob (64 configurations). A fit
# costs about the same at any prefix length here, so checkpoints every 10%
# (not 2.5%) cut the work to one execution of about four seconds, leaving
# room for four topics per variant and so more draws to average over.
GRID_N = 2000
GRID_SLOTS = (
    (0.70, 0.5, 0.010, 0.002),
    (0.50, 0.6, 0.006, 0.003),
    (0.80, 0.4, 0.020, 0.001),
    (0.60, 0.5, 0.008, 0.0025),
)
GRID_FLAGS = {
    "--alpha": "0.1",
    "--beta": "0.1",
    "--processes": "ip",
    "--rates": "exp,hyp,pow,ap",
    "--nrmse-thresholds": "0.1,0.2",
    "--min-rel-rules": "static10,static20",
    "--target-recalls": "0.8,0.9",
    "--confidences": "0.9,0.95",
}

# simulate_cox: CLEF-sized synthetic topics from good to poor rankings (the
# paper's robustness study); ``noise`` flips labels, as the spec format does.
SIM_N = 3000
SIM_SLOTS = (  # (a, b, c, noise)
    (0.9, 0.5, 0.020, 0.000),
    (0.7, 0.5, 0.010, 0.002),
    (0.6, 0.4, 0.008, 0.003),
    (0.5, 0.6, 0.005, 0.004),
    (0.4, 0.7, 0.003, 0.006),
    (0.3, 0.8, 0.002, 0.008),
)
SIM_METHODS = "ip,cox,oracle,target,target-adapted,knee"


WORKLOADS = ("stop_deep", "simulate_cox", "sweep_grid")
# Input variants per workload. On simulate_cox the Cox work of one topic
# varies by about 40% (sd) from draw to draw, and on sweep_grid the fits
# of a topic vary with where each configuration stops; stop_deep is mostly
# parsing, whose work does not depend on the draw.
VARIANTS = {"stop_deep": 1, "simulate_cox": 4, "sweep_grid": 3}


def schedule(n: int, alpha: str = ALPHA) -> list[int]:
    """Checkpoints of the uniform schedule with alpha = beta, below n."""
    step = math.ceil(Fraction(alpha) * n)
    return list(range(step, n, step))


def cli_args(name: str, work: Path, output: Path) -> list[str]:
    """Arguments after ``python -m tarstop.cli`` for one execution."""
    common = ["--jobs", "1", "--format", "json", "--output", str(output)]
    if name == "stop_deep":
        return ["stop", "--run", str(work / "run.txt"), "--qrels", str(work / "qrels.txt"),
                "--trace", *common]
    if name == "simulate_cox":
        return ["simulate", "--spec", str(work / "spec.json"), "--rate", "hyp",
                "--methods", SIM_METHODS, *common]
    if name == "sweep_grid":
        flags = [part for item in GRID_FLAGS.items() for part in item]
        return ["sweep", "--run", str(work / "run.txt"), "--qrels", str(work / "qrels.txt"),
                *flags, *common]
    raise ValueError(f"unknown workload {name!r}")
