"""One set-up pass, run in a fresh interpreter: import the program.

    python3 clibench/setup_pass.py

The parent times the whole child from spawn to exit, so every pass pays a
cold import, as a user's first command does. The inputs are built apart
from it and untimed: that is the benchmark's own work, which no change to
the program can move.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tarstop

    if Path(tarstop.__file__).resolve().parent != ROOT / "src" / "tarstop":
        print(f"setup: imported tarstop from {tarstop.__file__}, not the checkout", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
