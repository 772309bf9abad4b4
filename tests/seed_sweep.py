"""Run the test suite at several values of SQZMIRROR_TEST_SEED and count
each test's failures.

    python tests/seed_sweep.py              # seeds 0-15, about 2.5 min
    python tests/seed_sweep.py 3 7 40       # the seeds given

Each seed is one `pytest tests` subprocess, run one after another, never in
parallel. It prints one line per seed, then each test that failed with the
number of seeds it failed at, and exits 1 when any test failed (2 when a
pytest run could not complete). The file name keeps pytest from collecting
it.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the short summary pytest -rfE prints for each failing test or error
_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def failures_at(seed: int) -> tuple[list[str], int]:
    """The tests that fail at one seed, and pytest's exit code."""
    env = dict(os.environ, SQZMIRROR_TEST_SEED=str(seed))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests", "-q", "-rfE", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    return _FAILURE.findall(proc.stdout), proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("seeds", nargs="*", type=int, default=list(range(16)))
    args = parser.parse_args(argv)
    counts: Counter[str] = Counter()
    broken = []
    for seed in args.seeds:
        failed, code = failures_at(seed)
        counts.update(failed)
        if code not in (0, 1):
            broken.append(seed)
        print(f"seed {seed}: {len(failed)} failed (pytest exit {code})", flush=True)
    print(f"{len(args.seeds)} seeds; failures per test:")
    for test, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {n:3d}  {test}")
    if not counts:
        print("  none")
    if broken:
        print(f"pytest did not complete at seeds {broken}")
        return 2
    return 1 if counts else 0


if __name__ == "__main__":
    sys.exit(main())
