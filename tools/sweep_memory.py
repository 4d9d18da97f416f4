"""Peak memory of a large sweep against the benchmark's small one, to show
that a sweep's memory does not grow with the size of its output.

    python3 tools/sweep_memory.py

The script writes the ``sweep_grid`` inputs of seed 1
(``clibench/inputs.py``, run as a script) and runs the program of this
checkout (``src/``) twice on their first variant, each run in a fresh
interpreter with ``--output`` to a json file:

  small: the benchmark's own grid of 64 combinations (256 topic rows);
  large: 1,920 combinations (7,680 topic rows, about 4.5 MB of json).

Each run's peak resident set is read from its ``os.wait4`` usage. The
script prints both peaks and their gap, and exits 1 when the large run's
peak exceeds the small one's by more than ``LIMIT_MIB``. It imports the
standard library only, and spawns the runs through the benchmark's own
``clibench/run.py``: a forked child's ``ru_maxrss`` starts at the size of
the process it was forked from, so a parent that had loaded numpy would
put a floor under both peaks and hide the gap.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "clibench"))
import run  # noqa: E402  (standard library only)
import workloads  # noqa: E402

# Largest allowed gap between the two peaks. Holding the whole json text in
# memory put the large run 36 MiB above the small one; writing it straight
# to its file leaves a gap of about 9 MiB, the grid's own rows.
LIMIT_MIB = 20.0

LARGE_GRID = {
    "--alpha": "0.05",
    "--beta": "0.05",
    "--processes": "ip",
    "--rates": "exp,hyp,pow,ap",
    "--nrmse-thresholds": "0.05,0.08,0.1,0.12,0.15,0.2,0.25,0.3",
    "--min-rel-rules": "static10,static20,dynamic",
    "--target-recalls": "0.7,0.8,0.85,0.9,0.95",
    "--confidences": "0.8,0.9,0.95,0.99",
}


def _peak_mib(args: list[str], work: Path) -> float:
    """Run the command line of this checkout on ``args``; its peak RSS in MiB."""
    stderr_path = work / "stderr.txt"
    _, rss, code = run.spawn([sys.executable, "-m", "tarstop.cli", *args], stderr_path)
    if code != 0:
        raise SystemExit(f"tarstop {args[0]} exited {code}: "
                         f"{stderr_path.read_text(errors='replace')[-2000:]}")
    return rss


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="sweep_memory_") as tmp:
        work = Path(tmp)
        run._helper("inputs.py", "sweep_grid", "1", str(work))
        variant = work / "v0"
        small = _peak_mib(workloads.cli_args("sweep_grid", variant, work / "small.json"), work)
        large_flags = [part for item in LARGE_GRID.items() for part in item]
        large = _peak_mib(["sweep", "--run", str(variant / "run.txt"),
                           "--qrels", str(variant / "qrels.txt"), *large_flags,
                           "--jobs", "1", "--format", "json", "--output",
                           str(work / "large.json")], work)
        size = (work / "large.json").stat().st_size
    gap = large - small
    print(f"small sweep: {small:.1f} MiB; large sweep: {large:.1f} MiB "
          f"({size / 1e6:.1f} MB of json); gap {gap:.1f} MiB, limit {LIMIT_MIB:g}")
    return 0 if gap <= LIMIT_MIB else 1


if __name__ == "__main__":
    sys.exit(main())
