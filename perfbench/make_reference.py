"""Record the reference CSVs of every fixed figure scenario the benchmark runs.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs each scenario through ``sqzmirror.cli.main`` and stores every CSV
text in ``perfbench/reference.json.xz``. Regenerate it only when a change is
meant to move the published numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import FIXED_SCENARIOS  # noqa: E402
from verify import REFERENCE_FILE  # noqa: E402

WORK_DIR = Path(".perfbench_out") / "reference"


def main() -> int:
    from sqzmirror import cli

    reference: dict[str, dict[str, str]] = {}
    for scenario in sorted(s for names in FIXED_SCENARIOS.values() for s in names):
        out = WORK_DIR / scenario
        shutil.rmtree(out, ignore_errors=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["run", scenario, "--out", str(out)])
        if code != 0:
            print(f"{scenario}: exit code {code}", file=sys.stderr)
            return 1
        paths = [Path(p) for p in stdout.getvalue().split("\n") if p.endswith(".csv")]
        reference[scenario] = {p.stem: p.read_text(encoding="ascii") for p in paths}
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    with lzma.open(REFERENCE_FILE, "wt", encoding="ascii", preset=9) as f:
        json.dump(reference, f, sort_keys=True)
    print(f"wrote {REFERENCE_FILE} ({sum(map(len, reference.values()))} curves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
