"""Digests of the command line's outputs, to show that a change leaves them
byte-identical.

    python3 tools/output_digests.py [--seeds 1,2,3]

For each seed, the script writes the benchmark's input variants
(``clibench/inputs.py``, run as a script, so the benchmark stays as it
is) and runs the program of this checkout (``src/``) on every variant:

  run + qrels variants (``stop_deep``, ``sweep_grid``):
    stop --trace, as json and as csv; stop --trace as json with each
    other rate family and with the cox process; compare with every
    method; sweep over both processes and every rate;
  spec variants (``simulate_cox``):
    simulate with ip and cox, once per rate family.

It prints one sha256 per command, over every file the command wrote, with
a label naming the seed, the variant and the command. Run it at two
commits and compare the lines. Nothing it writes outlives the run.

It also covers the parse errors. On faulty copies of each run + qrels
variant it runs ``stop`` and hashes the exit code and the error message,
with the copy's directory taken out of the message. The copies hold:

  run-far-repeat:     the doc id of a topic's first line repeated seven
                      eighths into the run, and a malformed line 10
                      lines later;
  run-after-comment:  a comment line inside a topic, then a doc id of 5
                      lines before;
  qrels-zero-repeat:  the first judged-0 qrels line repeated at the end.

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
    trace = ["stop", *inputs, "--trace", "--format", "json"]
    return {
        "stop-json": trace,
        "stop-csv": ["stop", *inputs, "--trace", "--format", "csv"],
        **{f"stop-json-{rate}": [*trace, "--rate", rate] for rate in RATES if rate != "hyp"},
        "stop-json-cox": [*trace, "--process", "cox"],
        "compare": ["compare", *inputs, "--methods", METHODS],
        "sweep": ["sweep", *inputs, "--processes", "ip,cox"],
    }


def _run(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run the command line of this checkout on ``args``, output discarded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.setdefault("PYTHONHASHSEED", "0")
    return subprocess.run([sys.executable, "-m", "tarstop.cli", *args],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL, **kwargs)


def _digest(args: list[str], out_dir: Path) -> str:
    """Run one command; hash the files it wrote, in name order."""
    out_dir.mkdir()
    suffix = ".csv" if "csv" in args else ".json"
    _run([*args, "--output", str(out_dir / f"out{suffix}")], check=True)
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _with_doc(line: str, doc_id: str) -> str:
    fields = line.split()
    fields[2] = doc_id
    return " ".join(fields)


def _faulty_copies(variant: Path, work: Path) -> dict[str, Path]:
    """Copies of a run + qrels variant with one fault each, by label."""
    run = (variant / "run.txt").read_text().splitlines()
    qrels = (variant / "qrels.txt").read_text().splitlines()
    at = len(run) * 7 // 8
    topic = run[at].split()[0]
    first = next(line for line in run if line.split()[0] == topic)
    far = [*run[:at], _with_doc(run[at], first.split()[2]), *run[at + 1:]]
    far[at + 10] = far[at + 10].rsplit(maxsplit=1)[0]  # 5 fields of 6
    at = len(run) // 3
    comment = [*run[:at], "# a comment", _with_doc(run[at], run[at - 5].split()[2]),
               *run[at + 1:]]
    zero = next(line for line in qrels if line.split()[3] == "0")
    copies = {}
    for label, (run_lines, qrels_lines) in {
        "run-far-repeat": (far, qrels),
        "run-after-comment": (comment, qrels),
        "qrels-zero-repeat": (run, [*qrels, zero]),
    }.items():
        copy = copies[label] = work / label
        copy.mkdir()
        (copy / "run.txt").write_text("\n".join(run_lines) + "\n")
        (copy / "qrels.txt").write_text("\n".join(qrels_lines) + "\n")
    return copies


def _error_digest(copy: Path) -> str:
    """Run stop on a faulty copy; hash its exit code and its stderr."""
    done = _run(["stop", "--run", str(copy / "run.txt"), "--qrels", str(copy / "qrels.txt"),
                 "--output", str(copy / "out.json")], stderr=subprocess.PIPE, text=True)
    stderr = done.stderr.replace(str(copy), "<copy>")
    return hashlib.sha256(f"{done.returncode}\n{stderr}".encode()).hexdigest()


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
                    if workload == "simulate_cox":
                        continue
                    faults = work / "faults" / f"{workload}-{seed}-{variant.name}"
                    faults.mkdir(parents=True)
                    for label, copy in _faulty_copies(variant, faults).items():
                        name = f"{workload}/seed{seed}/{variant.name}/stop-{label}"
                        print(f"{_error_digest(copy)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
