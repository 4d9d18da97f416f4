"""Digests of the command line's outputs, to show that a change leaves them
byte-identical.

    python3 tools/output_digests.py [--seeds 1,2,3]

For each seed, the script writes the benchmark's input variants
(``clibench/inputs.py``, run as a script, so the benchmark stays as it
is) and runs the program of this checkout (``src/``) on every variant:

  run + qrels variants (``stop_deep``, ``sweep_grid``):
    stop --trace, as json and as csv; stop --trace as json with each
    other rate family, with the cox process and with the confidence
    0.9999999999999999, the largest float below 1, which the cdf of
    some count bounds rounds short of; compare with every
    method, and sweep over both processes and every rate, each as json
    and as csv; on ``sweep_grid`` only, compare with every method on the
    autotar schedule at alpha and beta 0.05, as json;
  spec variants (``simulate_cox``):
    simulate with ip and cox, once per rate family, and as csv.

It also runs each subcommand once without ``--output`` (stop --trace,
evaluate of stop's outcomes as csv, compare, sweep as csv, simulate).

It prints one sha256 per command, over every file the command wrote (a
csv output with its ``.agg.csv``), or over what it wrote to stdout, with
a label naming the seed, the variant and the command. Run it at two
commits and compare the lines. Nothing it writes outlives the run.

It also covers the input and flag errors. On faulty copies of each
variant, and with faulty flags, it runs a command and hashes the exit
code and the error message, with the copy's directory taken out of the
message. On each run + qrels variant, ``stop`` runs on copies that hold:

  run-far-repeat:     the doc id of a topic's first line repeated seven
                      eighths into the run, and a malformed line 10
                      lines later;
  run-after-comment:  a comment line inside a topic, then a doc id of 5
                      lines before;
  qrels-zero-repeat:  the first judged-0 qrels line repeated at the end;

and ``compare --methods ip`` runs with ``--target-size 0`` and with
``--rho -1``, which no method run reads. On each spec variant,
``simulate`` runs on copies whose last spec has ``n`` as ``3000.0``,
``seed`` as ``true``, param ``a`` as a string, param ``a`` as a 401-digit
integer, ``topic_id`` as ``7``, no ``params``, an unknown key ``nosie``,
a param ``bb`` that its kind does not read, or the first spec's
``topic_id``.

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
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "clibench" / "inputs.py"
RATES = ("exp", "hyp", "pow", "ap")
METHODS = "ip,cox,oracle,target,target-adapted,knee"


def _commands(workload: str, variant: Path, outputs: Path) -> dict[str, list[str]]:
    """The commands run on one input variant, by label, in order. Each
    writes into ``outputs / label``; a label ending in ``-stdout`` runs
    without ``--output``."""
    if workload == "simulate_cox":
        spec = ["simulate", "--spec", str(variant / "spec.json"), "--methods", "ip,cox"]
        return {
            **{f"simulate-{rate}": [*spec, "--rate", rate] for rate in RATES},
            "simulate-csv": [*spec, "--format", "csv"],
            "simulate-stdout": spec,
        }
    inputs = ["--run", str(variant / "run.txt"), "--qrels", str(variant / "qrels.txt")]
    trace = ["stop", *inputs, "--trace", "--format", "json"]
    compare = ["compare", *inputs, "--methods", METHODS]
    sweep = ["sweep", *inputs, "--processes", "ip,cox"]
    # every method, the knee too, on a schedule other than the default
    autotar = ["--batch", "autotar", "--alpha", "0.05", "--beta", "0.05"]
    return {
        "stop-json": trace,
        "stop-csv": ["stop", *inputs, "--trace", "--format", "csv"],
        **{f"stop-json-{rate}": [*trace, "--rate", rate] for rate in RATES if rate != "hyp"},
        "stop-json-cox": [*trace, "--process", "cox"],
        "stop-confidence-near-one": [*trace, "--confidence", "0.9999999999999999"],
        "compare": compare,
        "compare-csv": [*compare, "--format", "csv"],
        **({"compare-autotar": [*compare, *autotar]} if workload == "sweep_grid" else {}),
        "sweep": sweep,
        "sweep-csv": [*sweep, "--format", "csv"],
        # the stdout of each subcommand, in one format each
        "stop-stdout": trace,
        "evaluate-stdout": ["evaluate", "--outcomes", str(outputs / "stop-json" / "out.json"),
                            *inputs, "--format", "csv"],
        "compare-stdout": compare,
        "sweep-stdout": [*sweep, "--format", "csv"],
    }


def _run(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run the command line of this checkout on ``args``, its stdout
    discarded unless ``kwargs`` say otherwise."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.setdefault("PYTHONHASHSEED", "0")
    kwargs.setdefault("stdout", subprocess.DEVNULL)
    return subprocess.run([sys.executable, "-m", "tarstop.cli", *args],
                          cwd=ROOT, env=env, **kwargs)


def _digest(args: list[str], out_dir: Path, to_stdout: bool) -> str:
    """Run one command; hash the files it wrote, in name order, or what it
    wrote to stdout."""
    out_dir.mkdir()
    if to_stdout:
        stdout = _run(args, check=True, stdout=subprocess.PIPE).stdout
        return hashlib.sha256(b"stdout\0" + stdout).hexdigest()
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


def _faulty_specs(variant: Path, work: Path) -> dict[str, Path]:
    """Copies of a spec variant whose last spec has one faulty field, by label."""
    payload = json.loads((variant / "spec.json").read_text())
    faults = {
        "n-float": ("n", 3000.0),
        "seed-bool": ("seed", True),
        "param-string": ("params", {"a": "0.5"}),
        "param-huge": ("params", {"a": 10 ** 400}),
        "topic-id-int": ("topic_id", 7),
        "params-missing": ("params", None),
        "key-unknown": ("nosie", 0.3),
        "param-unread": ("params", {"a": 0.5, "b": 0.5, "c": 0.01, "bb": 5}),
        "topic-id-repeat": ("topic_id", payload["topics"][0]["topic_id"]),
    }
    copies = {}
    for label, (key, value) in faults.items():
        last = dict(payload["topics"][-1], **{key: value})
        if value is None:
            del last[key]
        copy = copies[label] = work / label
        copy.mkdir()
        (copy / "spec.json").write_text(
            json.dumps({"topics": [*payload["topics"][:-1], last]}, indent=1))
    return copies


def _error_digest(args: list[str], copy: Path) -> str:
    """Run a command on a faulty copy, writing into it; hash its exit code
    and its stderr."""
    done = _run([*args, "--output", str(copy / "out.json")], stderr=subprocess.PIPE, text=True)
    stderr = done.stderr.replace(str(copy), "<copy>")
    return hashlib.sha256(f"{done.returncode}\n{stderr}".encode()).hexdigest()


def _error_commands(workload: str, variant: Path, work: Path) -> dict[str, tuple]:
    """The commands run on faulty copies of one input variant, by label:
    each command's arguments and the directory of its copy."""
    if workload == "simulate_cox":
        return {
            f"simulate-{label}": (["simulate", "--spec", str(copy / "spec.json"),
                                   "--methods", "ip"], copy)
            for label, copy in _faulty_specs(variant, work).items()
        }
    commands = {
        f"stop-{label}": (["stop", "--run", str(copy / "run.txt"),
                           "--qrels", str(copy / "qrels.txt")], copy)
        for label, copy in _faulty_copies(variant, work).items()
    }
    inputs = ["--run", str(variant / "run.txt"), "--qrels", str(variant / "qrels.txt")]
    for label, flag, value in (("target-size-0", "--target-size", "0"),
                               ("rho-negative", "--rho", "-1")):
        copy = work / label
        copy.mkdir()
        commands[f"compare-{label}"] = (
            ["compare", *inputs, "--methods", "ip", flag, value], copy)
    return commands


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
                    outputs = work / "out" / f"{workload}-{seed}-{variant.name}"
                    outputs.mkdir(parents=True)
                    for label, command in _commands(workload, variant, outputs).items():
                        name = f"{workload}/seed{seed}/{variant.name}/{label}"
                        digest = _digest(command, outputs / label, label.endswith("-stdout"))
                        print(f"{digest}  {name}", flush=True)
                    faults = work / "faults" / f"{workload}-{seed}-{variant.name}"
                    faults.mkdir(parents=True)
                    for label, (command, copy) in _error_commands(
                            workload, variant, faults).items():
                        name = f"{workload}/seed{seed}/{variant.name}/{label}"
                        print(f"{_error_digest(command, copy)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
