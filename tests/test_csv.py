"""CSV bytes: the bulk .12e writer against format(v, ".12e"), cell by cell."""

import contextlib
import io

import numpy as np
import tracer

from sqzmirror import cli, scenarios


def reference_csv(header, rows) -> bytes:
    """The CSV that formats one cell at a time: every number as
    format(v, ".12e"), the error column's text as is."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if name == "error" else format(v, ".12e")
                              for name, v in zip(header, row)))
    return ("\n".join(lines) + "\n").encode("ascii")


def signed(rng, x):
    return x * rng.choice([-1.0, 1.0], size=np.shape(x))


def kernel_inputs(rng) -> dict[str, np.ndarray]:
    """The cells that test each branch and margin of _e12_rows."""
    n = 14_000
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near_powers = [powers]
    for step in (1, 2):
        for toward in (0.0, np.inf):
            near = powers
            for _ in range(step):
                near = np.nextafter(near, toward)
            near_powers.append(near)
    # 14-digit decimals ending in 5: halfway between two 13-digit ones,
    # so the binary value lies within a few ulps of a rounding tie
    ties = [float(f"{m}e{k}") for m, k in zip(
        (10 * rng.integers(10**12, 10**13, n) + 5).tolist(),
        rng.integers(-300, 295, n).tolist())]
    # 13 digits and a fraction 1/2 +- 0.0039 to 0.0041: the fast path's
    # margin is 2^-8 = 0.00390625, and |m - m_exact| stays below 2.3e-3
    margin = [float(f"{m}{f:04d}e{k}") for m, f, k in zip(
        rng.integers(10**12, 10**13, n).tolist(),
        (5000 + rng.choice([-1, 1], n) * rng.integers(39, 42, n)).tolist(),
        rng.integers(-300, 292, n).tolist())]
    edge = rng.uniform(1.0, 10.0, n) * np.array(
        [float(f"1e{k}") for k in (-281, -280, -279, 279, 280, 281)]).repeat(-(-n // 6))[:n]
    return {
        "bit patterns": np.concatenate([
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
            [np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
             np.finfo(float).max, -np.finfo(float).max]]),
        "near ties": signed(rng, np.array(ties)),
        "rounding margin": signed(rng, np.array(margin)),
        "powers of ten": np.concatenate([signed(rng, x) for x in near_powers] + [-powers]),
        "zeros": np.array([0.0, -0.0] * 7),
        "exponents 279-281": signed(rng, edge),
        "ordinary": rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30, n),
    }


def test_e12_rows_are_format_cell_by_cell(rng):
    """Every input class, both row ends, as many columns as a trajectory:
    the kernel's bytes are format(v, ".12e") joined by "," per row."""
    for name, cells in kernel_inputs(rng).items():
        cells = np.concatenate([cells, np.zeros(-len(cells) % 7)]).reshape(-1, 7)
        for end in (b"\n", b",\n"):
            expected = "".join(",".join(format(v, ".12e") for v in row) + end.decode()
                               for row in cells.tolist()).encode("ascii")
            assert scenarios._e12_rows(cells, end).tobytes() == expected, (name, end)


def test_write_csv_takes_ints_numpy_scalars_and_error_texts(tmp_path, rng):
    """Rows of ints (past 2^53 and past int64), np.float64 and floats, with
    error texts on some rows, over more rows than one block holds, write
    what the cell-by-cell CSV writes."""
    header = ("x", "E_N", "dP2_minus", "error")
    values = rng.normal(size=(2 * scenarios._E12_BLOCK // 3 + 7, 3)) * 10.0 ** rng.integers(
        -12, 12, (1, 3))
    rows = []
    for k, (a, b, c) in enumerate(values.tolist()):
        text = f"StabilityError: row {k}; eigenvalue {b!r}" if k % 97 == 5 else ""
        rows.append((np.float64(a), [2**53 + 1, 2**70 + 1, -3, 0][k % 4], c, text))
    path = tmp_path / "rows.csv"
    scenarios.write_csv(path, header, rows)
    assert path.read_bytes() == reference_csv(header, rows)
    # no error column: an array, in blocks
    header = scenarios.TRAJECTORY_COLUMNS
    x = rng.normal(size=(2 * scenarios._E12_BLOCK // 7 + 3, 7))
    scenarios.write_csv(path, header, x)
    assert path.read_bytes() == reference_csv(header, x.tolist())


def test_traced_runs_count_the_written_rows(tmp_path):
    """Under the benchmark's tracer a fig2a run (array rows) reports the
    rows and bytes of its CSVs, and a custom sweep with a failing point
    (tuple rows) its error row too."""
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("[scenario]\nname = custom\n[sweep]\nname = power_w\n"
                     "values = 1e-6, -1e-6, 2e-6\n")
    error_rows = {}
    for argv, out in ((["run", "fig2a"], "fig2a"), (["run", str(sweep)], "sweep")):
        with tracer.Tracer() as trace, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--out", str(tmp_path / out)]) == 0
        metrics = tracer.layer_metrics(trace.spans)
        csvs = sorted((tmp_path / out).glob("*.csv"))
        assert metrics["scenarios.rows"] == sum(
            len(p.read_text().splitlines()) - 1 for p in csvs)
        assert metrics["scenarios.write_csv.bytes"] == sum(p.stat().st_size for p in csvs)
        error_rows[out] = metrics["scenarios.error_rows"]
    assert error_rows == {"fig2a": 0, "sweep": 1}
