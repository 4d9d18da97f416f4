"""Digests of the command line's outputs, to show that a change leaves them
byte-identical.

    python3 tools/output_digests.py [--seeds 1,2,3]

For each seed, the script writes the benchmark's input variants
(``clibench/inputs.py``, run as a script, so the benchmark stays as it
is) and runs the program of this checkout (``src/``) on every variant:

  run + qrels variants (``stop_deep``, ``sweep_grid``):
    stop --trace, as json and as csv; compare with every method; sweep
    over both processes and every rate;
  spec variants (``simulate_cox``):
    simulate with ip and cox, once per rate family.

It prints one sha256 per command, over every file the command wrote, with
a label naming the seed, the variant and the command. Run it at two
commits and compare the lines. Nothing it writes outlives the run.

The commands run under the caller's ``PYTHONHASHSEED``, or 0 if it is
unset. No output may depend on it, so two hash seeds must print the
same lines:

    PYTHONHASHSEED=0 python3 tools/output_digests.py --seeds 1 > digests-0.txt
    PYTHONHASHSEED=1 python3 tools/output_digests.py --seeds 1 > digests-1.txt
    diff digests-0.txt digests-1.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "clibench" / "inputs.py"
RATES = ("exp", "hyp", "pow", "ap")
METHODS = "ip,cox,oracle,target,target-adapted,knee"


def _commands(workload: str, variant: Path) -> dict[str, list[str]]:
    """The commands run on one input variant, by label."""
    if workload == "simulate_cox":
        spec = ["simulate", "--spec", str(variant / "spec.json"), "--methods", "ip,cox"]
        return {f"simulate-{rate}": [*spec, "--rate", rate] for rate in RATES}
    inputs = ["--run", str(variant / "run.txt"), "--qrels", str(variant / "qrels.txt")]
    return {
        "stop-json": ["stop", *inputs, "--trace", "--format", "json"],
        "stop-csv": ["stop", *inputs, "--trace", "--format", "csv"],
        "compare": ["compare", *inputs, "--methods", METHODS],
        "sweep": ["sweep", *inputs, "--processes", "ip,cox"],
    }


def _digest(args: list[str], out_dir: Path) -> str:
    """Run one command; hash the files it wrote, in name order."""
    out_dir.mkdir()
    suffix = ".csv" if "csv" in args else ".json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.setdefault("PYTHONHASHSEED", "0")
    subprocess.run(
        [sys.executable, "-m", "tarstop.cli", *args, "--output", str(out_dir / f"out{suffix}")],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated input seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    with tempfile.TemporaryDirectory(prefix="output_digests_") as tmp:
        work = Path(tmp)
        for seed in seeds:
            for workload in ("stop_deep", "sweep_grid", "simulate_cox"):
                inputs = work / f"{workload}-{seed}"
                inputs.mkdir()
                subprocess.run([sys.executable, str(INPUTS), workload, str(seed), str(inputs)],
                               check=True)
                for variant in sorted(p for p in inputs.iterdir() if p.is_dir()):
                    for label, command in _commands(workload, variant).items():
                        name = f"{workload}/seed{seed}/{variant.name}/{label}"
                        out_dir = work / "out" / name.replace("/", "-")
                        out_dir.parent.mkdir(exist_ok=True)
                        print(f"{_digest(command, out_dir)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
