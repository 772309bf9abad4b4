"""Checks on the CSV files written by one ``sqzmirror run`` invocation.

Fixed figure scenarios are compared with the reference values recorded by
``make_reference.py``; seeded custom runs are checked by comparing models
that must agree. Every run must also report physical values: E_N >= 0 and
a finite, positive dP2 variance, with an empty ``error`` column.
"""

from __future__ import annotations

import json
import lzma
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json.xz")

# Reference comparison: |a - b| <= atol + rtol |b|. Loose enough for a
# refactor that reorders floating-point work, tight enough to catch a
# changed value. The golden-section optimum is only defined to the
# minimizer's tolerance (1e-4 in r), so r_opt_numeric gets that atol.
REF_RTOL = 1e-7
REF_ATOL = 1e-9
COLUMN_ATOL = {"r_opt_numeric": 2e-4}

# reduced3 and reduced10 solve the same steady state (they agree to ~1e-13).
STEADY_RTOL = 1e-9
STEADY_ATOL = 1e-10
# reduced10 integrates with RK4 at h * rate = 0.0125 and reduced_analytic is
# the closed form on the same sample times; their gap (up to ~5e-5 of the
# column's largest value) is RK4 truncation, so the tolerance is scaled by
# that value. theta is left out there: the angle is ill-conditioned where
# the anomalous moment nearly vanishes early in a trajectory.
TRAJECTORY_SCALE_TOL = 5e-4

STEADY_COMPARED = ("E_N", "dP2_minus", "dQ2_minus", "theta")
TRAJECTORY_COMPARED = ("E_N", "dP2_minus", "dQ2_minus")


@dataclass
class Check:
    """Outcome of checking one invocation's outputs."""

    rows: int = 0
    max_rel_dev: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


Table = tuple[list[str], dict[str, list]]


def load_reference(path: Path = REFERENCE_FILE) -> dict[str, dict[str, Table]]:
    """scenario -> {curve name -> parsed CSV} as recorded by make_reference.py."""
    with lzma.open(path, "rt", encoding="ascii") as f:
        texts = json.load(f)
    return {scenario: {curve: parse_csv(text) for curve, text in curves.items()}
            for scenario, curves in texts.items()}


def parse_csv(text: str) -> Table:
    """Header and columns; the ``error`` column stays text, the rest float."""
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    columns: dict[str, list] = {}
    for j, name in enumerate(header):
        cells = [row[j] if j < len(row) else "" for row in rows]
        if name == "error":
            columns[name] = cells
        else:
            columns[name] = [float(c) if c else math.nan for c in cells]
    return header, columns


def _angle_gap(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def _compare(check: Check, where: str, name: str, got: list[float],
             want: list[float], rtol: float, atol: float) -> None:
    worst = 0.0
    for k, (a, b) in enumerate(zip(got, want)):
        if math.isnan(a) and math.isnan(b):
            continue
        gap = _angle_gap(a, b) if name == "theta" else abs(a - b)
        if not gap <= atol + rtol * abs(b):
            check.problems.append(f"{where}: {name}[{k}] = {a!r}, expected {b!r}")
            return
        worst = max(worst, gap / max(abs(b), atol))
    check.max_rel_dev = max(check.max_rel_dev, worst)


def _physical(check: Check, where: str, columns: dict[str, list]) -> None:
    for name, values in columns.items():
        if name == "error":
            errors = [v for v in values if v]
            if errors:
                check.problems.append(f"{where}: {len(errors)} error rows, first: {errors[0]}")
        elif name.startswith("E_N"):
            if not all(v >= 0.0 and math.isfinite(v) for v in values):
                check.problems.append(f"{where}: {name} negative or not finite")
        elif name.startswith("dP2"):
            if not all(v > 0.0 and math.isfinite(v) for v in values):
                check.problems.append(f"{where}: {name} not finite and positive")


def check_run(label: str, models: tuple[str, ...], written: list[Path],
              reference: dict[str, dict[str, Table]]) -> Check:
    """Check the CSVs one invocation wrote (``written`` as printed by the CLI).

    A fixed scenario (no ``models``) is compared with its reference curves;
    a seeded custom run with ``models`` by comparing those models.
    """
    check = Check()
    tables = {}
    for path in written:
        if path.suffix != ".csv":
            continue
        header, columns = parse_csv(path.read_text(encoding="ascii"))
        tables[path.stem] = (header, columns)
        check.rows += len(columns[header[0]])
        _physical(check, path.stem, columns)
    if models:
        _check_models(check, models, tables)
    else:
        _check_reference(check, reference[label], tables)
    return check


def _check_reference(check: Check, expected: dict[str, Table], tables: dict) -> None:
    if set(tables) != set(expected):
        check.problems.append(
            f"curves {sorted(tables)} differ from reference {sorted(expected)}"
        )
        return
    for curve, (ref_header, ref_columns) in expected.items():
        header, columns = tables[curve]
        if header != ref_header or len(columns[header[0]]) != len(ref_columns[header[0]]):
            check.problems.append(f"{curve}: header or row count differs from reference")
            continue
        for name in header:
            if name == "error":
                continue
            _compare(check, curve, name, columns[name], ref_columns[name],
                     REF_RTOL, COLUMN_ATOL.get(name, REF_ATOL))


def _check_models(check: Check, models: tuple[str, ...], tables: dict) -> None:
    sweep = any(name.startswith("custom_sweep_") for name in tables)
    prefix = "custom_sweep_" if sweep else "custom_"
    names = [prefix + m for m in models]
    if set(tables) != set(names):
        check.problems.append(f"curves {sorted(tables)} differ from {names}")
        return
    pair = ("reduced3", "reduced10") if sweep else ("reduced10", "reduced_analytic")
    (_, got), (_, want) = tables[prefix + pair[0]], tables[prefix + pair[1]]
    where = f"{pair[0]} vs {pair[1]}"
    axis_name = next(iter(want))
    if got[axis_name] != want[axis_name]:
        check.problems.append(f"{where}: {axis_name} columns differ")
        return
    if sweep:
        for name in STEADY_COMPARED:
            _compare(check, where, name, got[name], want[name],
                     STEADY_RTOL, STEADY_ATOL)
        return
    for name in TRAJECTORY_COMPARED:
        scale = max([1.0] + [abs(v) for v in want[name]])
        _compare(check, where, name, got[name], want[name],
                 0.0, TRAJECTORY_SCALE_TOL * scale)
