"""Print the ``src/`` Python line totals at a revision and in the work
tree, and their difference (negative = the work tree is smaller).

Usage::

    python scripts/src_delta.py REV

Lines are counted by ``git grep -c ''`` over ``src/**.py`` — at REV
for the first total, and over the work tree (tracked and untracked,
ignored files excluded) for the second.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
PATHSPEC = "src/*.py"


def count_lines(rev: Optional[str] = None) -> int:
    """Total lines of the ``src/`` Python files at ``rev`` (``None``:
    the work tree)."""
    cmd = ["git", "grep", "--no-color", "-c", "-e", ""]
    cmd += [rev] if rev is not None else ["--untracked"]
    cmd += ["--", PATHSPEC]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode not in (0, 1):  # 1 = no file matched
        raise SystemExit(proc.stderr.strip() or f"{cmd} failed")
    # Each line is "[REV:]path:count"; the count is after the last ':'.
    return sum(
        int(line.rsplit(":", 1)[1])
        for line in proc.stdout.splitlines() if line
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args(argv)
    before = count_lines(args.rev)
    after = count_lines()
    print(f"src/ Python lines at {args.rev}: {before}")
    print(f"src/ Python lines in work tree: {after}")
    print(f"delta: {after - before:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
