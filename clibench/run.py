"""Benchmark of the tarstop command line, run the way a user runs it.

    python3 clibench/run.py --workload stop_deep --seed 1 --seconds 30 --trace 0

Run from a checkout that holds the program under ``src/``. The benchmark
builds the workload's input variants from the seed, then runs the workload's
command on them in whole rounds, each time in a fresh interpreter
(``python -m tarstop.cli``) timed from spawn to exit, for as many rounds as
fit in ``--seconds``. It checks the first output of each variant against its own
computations from the labels it generated, requires every later output of
that variant to be byte-identical, and prints one JSON line:

  --trace 0: cmd_s (median wall time of one execution), setup_s (median of
             the set-up passes, each a cold import of the program in a
             fresh interpreter, one after each timed execution),
             peak_rss_mb (median peak resident set of the timed executions,
             from each child's own rusage);
  --trace 1: per-layer counts and self times of the first variant, from
             executions run under ``tracer.py`` that alternate with
             untraced ones to give the tracing overhead.

Every execution runs alone, with ``--jobs 1`` and BLAS/OpenMP pinned to one
thread. Inputs, outputs and trace files live in ``.clibench_work/`` under
the checkout and are removed at the end.

This process imports the standard library only. The kernel reports a
child's peak resident set as at least the size of the process it was forked
from, so numpy and scipy loaded here would put a floor of 65 MiB or more
under ``peak_rss_mb``. Inputs are built (``inputs.py``) and outputs checked
(``verify.py``) in children of their own, outside the timed executions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".clibench_work"

MIN_TIMED = 3  # timed executions (or traced pairs) per run, whatever --seconds says
CHILD_MEMORY = 4 << 30  # address-space cap: a runaway allocation fails, not the host
CHILD_CPU_S = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "corpus.parse_run.calls": "count", "corpus.parse_run.s": "s",
    "corpus.parse_qrels.s": "s", "corpus.join_all.s": "s", "corpus.generate_synthetic.s": "s",
    "rates.window_estimates.calls": "count", "rates.window_estimates.s": "s",
    "rates.window_estimates.points": "count",
    "rates.fit_rate.calls": "count", "rates.fit_rate.s": "s", "rates.fit_rate.unique_ratio": "ratio",
    "rates.rate_integral.calls": "count",
    "estimates.estimate_remaining_cox.calls": "count", "estimates.estimate_remaining_cox.s": "s",
    "estimates.estimate_remaining_ip.calls": "count", "estimates.estimate_remaining_ip.s": "s",
    "estimates.poisson_quantile.calls": "count", "estimates.poisson_quantile.s": "s",
    "stopping.run_stopping.calls": "count", "stopping.run_stopping.self_s": "s",
    "baselines.s": "s", "metrics.s": "s", "cli.main.self_s": "s",
    "stopping.gate.too_few_relevant": "count", "stopping.gate.fit_failed": "count",
    "stopping.gate.nrmse_rejected": "count", "stopping.gate.evaluated": "count",
    "rates.fit_rate.failed": "count", "estimates.estimate_remaining_cox.fallbacks": "count",
    "cli.output_bytes": "bytes", "cli.nonfinite_values": "count", "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Execution:
    """One child run of the CLI on one input variant."""

    variant: Path
    wall_s: float
    rss_mb: float
    code: int
    output: bytes | None


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S))


def _helper(script: str, *args: str) -> str:
    """Run one of the benchmark's own untimed steps; return its standard output."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc.stdout


def spawn(cmd: list[str], stderr_path: Path) -> tuple[float, float, int]:
    """Run one child to its end; return wall seconds, peak RSS (MiB), exit code."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, preexec_fn=_limit_child)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.variants = [work / f"v{i}" for i in range(workloads.VARIANTS[workload])]
        self.errors: list[str] = []
        self.failures: list[str] = []

    def prepare(self) -> None:
        """Compile the program's bytecode and build the inputs, both untimed."""
        compileall.compile_dir(ROOT / "src" / "tarstop", quiet=1)
        _helper("inputs.py", self.workload, str(self.seed), str(self.work))

    def setup_pass(self) -> float:
        """Time one cold import of the program in a fresh interpreter."""
        wall, _, code = spawn([sys.executable, str(HERE / "setup_pass.py")], self.work / "setup.err")
        if code != 0:
            raise RuntimeError(f"set-up failed ({code}): {(self.work / 'setup.err').read_text()}")
        return wall

    def execute(self, variant: Path, trace_file: Path | None = None) -> Execution:
        output = variant / "out.json"
        output.unlink(missing_ok=True)
        argv = workloads.cli_args(self.workload, variant, output)
        if trace_file is None:
            cmd = [sys.executable, "-m", "tarstop.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), *argv]
        wall, rss, code = spawn(cmd, self.work / "cli.err")
        data = output.read_bytes() if output.exists() else None
        if code != 0 and len(self.failures) < 3:
            self.failures.append(f"exit {code}: {(self.work / 'cli.err').read_text()[-2000:]}")
        return Execution(variant, wall, rss, code, data)


def run(workload: str, seed: int, seconds: int, traced: bool, work: Path) -> dict:
    bench = Bench(workload, seed, work)
    bench.prepare()

    # The traced run measures the first variant only, so its counts repeat.
    variants = bench.variants[:1] if traced else bench.variants
    runs = [bench.execute(variants[0])]  # untimed: fills the caches
    started = time.perf_counter()
    # Set-up passes are spread over the run, one after each timed execution,
    # so that their median covers the same stretch of the host's drifting
    # speed as cmd_s does, not only the first few seconds.
    setup_times = [] if traced else [bench.setup_pass()]
    timed: list[Execution] = []
    traced_runs: list[tuple[Execution, Path]] = []
    round_s = 0.0
    # Start a round only if, as long as the last one, it would overrun
    # --seconds by at most half its length.
    while len(timed) < MIN_TIMED or time.perf_counter() - started + round_s / 2 <= seconds:
        round_started = time.perf_counter()
        for variant in variants:  # whole rounds, so every variant weighs the same
            timed.append(bench.execute(variant))
            runs.append(timed[-1])
            if traced:
                trace_file = work / f"trace-{len(traced_runs)}.npz"
                traced_runs.append((bench.execute(variant, trace_file), trace_file))
                runs.append(traced_runs[-1][0])
            else:
                setup_times.append(bench.setup_pass())
        round_s = time.perf_counter() - round_started

    references = []
    for variant in variants:
        outputs = [r.output for r in runs if r.variant == variant and r.code == 0]
        if not outputs:
            bench.errors.append(f"{variant.name}: no execution succeeded")
            continue
        references.append(variant / "ref.json")
        references[-1].write_bytes(outputs[0])
        if any(out != outputs[0] for out in outputs):
            bench.errors.append(f"{variant.name}: outputs differ between executions")
    verdict = {"errors": [], "nonfinite": 0, "layers": []}
    if references:
        traces = [str(path) for r, path in traced_runs if r.code == 0]
        verdict = json.loads(_helper("verify.py", workload, "--outputs", *map(str, references),
                                     "--traces", *traces))
    bench.errors += verdict["errors"]
    failed = sum(r.code != 0 for r in runs)
    for message in bench.failures:
        print(f"clibench: {message}", file=sys.stderr)
    for message in bench.errors[:20]:
        print(f"clibench: check failed: {message}", file=sys.stderr)

    ok_timed = [r for r in timed if r.code == 0] or timed
    if not traced:
        values = {
            "cmd_s": statistics.median(r.wall_s for r in ok_timed),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r.rss_mb for r in ok_timed),
        }
        units = END_TO_END_UNITS
    else:
        values = _layer_values(verdict["layers"], traced_runs, timed, bench)
        values["cli.output_bytes"] = references[0].stat().st_size if references else 0
        values["cli.nonfinite_values"] = verdict["nonfinite"]
        units = PER_LAYER_UNITS
    return {
        "correct": not bench.errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _layer_values(per_run: list[dict], traced_runs, timed, bench: Bench) -> dict[str, float]:
    """Medians of per-layer self times over the traced executions; counts,
    which must repeat exactly, from the first of them."""
    if not per_run:
        return {name: 0.0 for name in PER_LAYER_UNITS}
    values = {}
    for name, unit in PER_LAYER_UNITS.items():
        samples = [m[name] for m in per_run if name in m]
        if not samples:
            continue
        if unit == "s":
            values[name] = statistics.median(samples)
        else:
            values[name] = samples[0]
            if any(s != samples[0] for s in samples):
                bench.errors.append(f"{name} differs between traced executions: {samples}")
    values["trace.overhead_s"] = (statistics.median(r.wall_s for r, _ in traced_runs)
                                  - statistics.median(r.wall_s for r in timed))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tarstop" / "__init__.py").is_file():
        print(f"clibench: no program source at {ROOT / 'src' / 'tarstop'}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
