"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 clibench/spread.py --workloads stop_deep,sweep_grid --seeds 1-10 --seconds 30

Runs one seed after another (never two at once), with ``--trace 0``, and
prints each run's result and then, per workload and end-to-end metric, the median, the quartiles from ``statistics.quantiles(n=4)``
and the interquartile spread as a share of the median. These are the
figures the bounds in BENCHMARK.json are judged by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            started = time.time()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            run_s = time.time() - started
            results.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{time.strftime('%H:%M:%S', time.gmtime(started))} {workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} run_s={run_s:.1f} {values}", flush=True)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {workload:13s} {name:45s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} "
                  f"iqr/median={spread:.4f}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  {workload:13s} failed share per run: {sorted(shares)}; "
              f"all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
