"""Checks outputs and reads trace files after the timed executions.

    python3 clibench/verify.py <workload> --outputs <out.json>... [--traces <trace.npz>...]

Each output is checked against the labels in ``truth.npz`` beside it. Prints
one JSON object: the failed checks (``errors``), how many bare Infinity/NaN
tokens the outputs held (``nonfinite``), and the per-layer metrics of each
trace file (``layers``). It runs in its own process because numpy and scipy
would otherwise raise the resident size of the process the timed executions
are started from, and with it the floor of their reported peak memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import GRID_FLAGS, WORKLOADS


def check(workload: str, output: Path) -> tuple[list[str], int]:
    """Check one output; return its failed checks and non-finite token count."""
    with np.load(output.parent / "truth.npz") as data:
        labels = {tid: data[tid] for tid in data.files}
    payload, nonfinite = checks.parse_lenient(output.read_text(encoding="utf-8"))
    if workload == "stop_deep":
        errors = checks.check_stop(payload, labels)
    elif workload == "simulate_cox":
        errors = checks.check_simulate(payload, labels)
    else:
        errors = checks.check_sweep(payload, labels, GRID_FLAGS)
    return [f"{output.parent.name}: {e}" for e in errors], nonfinite


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--outputs", type=Path, nargs="+", required=True)
    parser.add_argument("--traces", type=Path, nargs="*", default=[])
    args = parser.parse_args(argv)
    errors: list[str] = []
    nonfinite = 0
    for output in args.outputs:
        found, count = check(args.workload, output)
        errors += found
        nonfinite += count
    layers = [tracer.layer_metrics(path) for path in args.traces]
    print(json.dumps({"errors": errors, "nonfinite": nonfinite, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
