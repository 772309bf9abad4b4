"""CLI and scenario runner: files, formats, determinism, exit codes."""

import csv
from pathlib import Path

import numpy as np
import pytest

from sqzmirror.cli import main
from sqzmirror.scenarios import (
    OUTPUT_DIR_ENV,
    SCENARIOS,
    ScenarioConfig,
    parse_config_file,
    run,
    write_manifest,
)
from sqzmirror.errors import ConfigError


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def column(path, name):
    return np.array(
        [float(row[name]) for row in read_csv(path) if row[name] != ""]
    )


def test_run_fig2c_files_and_grid(tmp_path):
    assert main(["run", "fig2c", "--out", str(tmp_path)]) == 0
    en = tmp_path / "fig2c_EN.csv"
    dp = tmp_path / "fig2c_dP2.csv"
    assert en.is_file() and dp.is_file()
    r = column(en, "r")
    assert len(r) == 101
    assert r[0] == 0.0 and r[-1] == pytest.approx(2.5)
    assert np.allclose(np.diff(r), 0.025)
    # entangled region coincides with the squeezing region at T = 0
    e_n = column(en, "E_N")
    dp2 = column(dp, "dP2_minus")
    assert np.array_equal(e_n > 0.0, dp2 < 0.5)


def test_run_fig2a_vacuum_reservoir_curve(tmp_path):
    assert main(["run", "fig2a", "--out", str(tmp_path)]) == 0
    e_n = column(tmp_path / "fig2a_r0.csv", "E_N")
    assert np.all(e_n == 0.0)
    e_n1 = column(tmp_path / "fig2a_r1.csv", "E_N")
    assert e_n1.max() > 0.5


def test_custom_models_agree(tmp_path):
    code = main([
        "run", "custom", "--model", "reduced3", "--model", "reduced_analytic",
        "--model", "reduced10", "--out", str(tmp_path),
    ])
    assert code == 0
    a = column(tmp_path / "custom_reduced3.csv", "E_N")
    b = column(tmp_path / "custom_reduced_analytic.csv", "E_N")
    c = column(tmp_path / "custom_reduced10.csv", "E_N")
    assert np.abs(a - b).max() <= 1e-6
    assert np.abs(a - c).max() <= 1e-8


def test_custom_sweep_full_model(tmp_path):
    cfg = ScenarioConfig(
        scenario="custom",
        models=["full6"],
        sweep=("r", [0.0, 1.0]),
        output_dir=str(tmp_path),
    )
    run(cfg)
    rows = read_csv(tmp_path / "custom_sweep_full6.csv")
    assert len(rows) == 2
    assert float(rows[0]["E_N"]) == 0.0
    assert float(rows[1]["E_N"]) > 0.5


def test_fig2c_and_custom_sweep_print_one_number_per_point(tmp_path):
    """fig2c and a custom reduced3 sweep over its r grid print the same cells."""
    assert main(["run", "fig2c", "--out", str(tmp_path / "fig")]) == 0
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    run(ScenarioConfig(scenario="custom", sweep=("r", r_values.tolist()),
                       output_dir=str(tmp_path / "sweep")))
    en = read_csv(tmp_path / "fig" / "fig2c_EN.csv")
    dp = read_csv(tmp_path / "fig" / "fig2c_dP2.csv")
    sweep = read_csv(tmp_path / "sweep" / "custom_sweep_reduced3.csv")
    assert len(sweep) == len(en) == len(dp) == 101
    for e, d, s in zip(en, dp, sweep):
        assert (s["r"], s["E_N"], s["dP2_minus"]) == (e["r"], e["E_N"], d["dP2_minus"])


def test_trajectory_columns_and_monotone_time(tmp_path):
    assert main(["run", "custom", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "custom_reduced3.csv")
    assert list(rows[0]) == [
        "t_s", "E_N", "dP2_minus", "dQ2_minus", "theta", "n_phonon_1", "n_phonon_2",
    ]
    t = column(tmp_path / "custom_reduced3.csv", "t_s")
    assert np.all(np.diff(t) > 0)
    for name in rows[0]:
        vals = column(tmp_path / "custom_reduced3.csv", name)
        assert np.all(np.isfinite(vals))


def test_sweep_rows_in_input_order(tmp_path):
    cfg = ScenarioConfig(
        scenario="custom",
        sweep=("r", [1.0, 0.0, 0.5]),
        output_dir=str(tmp_path),
    )
    run(cfg)
    r = column(tmp_path / "custom_sweep_reduced3.csv", "r")
    assert list(r) == [1.0, 0.0, 0.5]


def test_sweep_records_per_point_failure(tmp_path):
    # blue detuning makes the reduced drift non-Hurwitz at this point only
    cfg = ScenarioConfig(
        scenario="custom",
        sweep=("delta_hz", [32.1e6, -32.1e6, 16.05e6]),
        output_dir=str(tmp_path),
    )
    run(cfg)
    rows = read_csv(tmp_path / "custom_sweep_reduced3.csv")
    assert len(rows) == 3
    assert rows[0]["error"] == ""
    assert "StabilityError" in rows[1]["error"]
    assert rows[1]["E_N"] == "nan"
    assert rows[2]["error"] == ""


def test_empty_sweep_rejected(tmp_path):
    cfg = ScenarioConfig(
        scenario="custom", sweep=("r", []), output_dir=str(tmp_path)
    )
    with pytest.raises(ConfigError):
        run(cfg)


def test_unknown_scenario_exit_code(tmp_path, capsys):
    assert main(["run", "nosuch", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_set_key_exit_code(tmp_path):
    assert main(["run", "fig2c", "--set", "bogus=1", "--out", str(tmp_path)]) == 2


def test_non_numeric_set_value_exit_code(tmp_path):
    assert main(["run", "fig2c", "--set", "r=abc", "--out", str(tmp_path)]) == 2


BAD_INPUTS = [
    # (config file text, or None to run fig4a; --set overrides; field named)
    (None, ["n_samples=nan"], "n_samples"),
    (None, ["n_samples=2.7"], "n_samples"),
    (None, ["t_end_s=-1"], "scenario.t_end_s"),
    (None, ["t_end_s=nan"], "scenario.t_end_s"),
    (None, ["power_w=inf"], "params.power_w"),
    (None, ["r=nan"], "params.r"),
    (None, ["power_w=-1"], "power"),
    (None, ["omega_c_hz=1"], "params"),
    ("[scenario]\nname = custom\nn_sample = 5\n", [], "scenario.n_sample"),
    ("[scenario]\nname = custom\njobs = 1\n", [], "scenario.jobs"),
    ("[scenario]\nname = custom\nn_samples = 2.7\n", [], "scenario.n_samples"),
    ("[scenario]\nname = custom\nt_end_s = 0\n", [], "scenario.t_end_s"),
    ("[params]\nr = nan\n", [], "params.r"),
    ("[params]\ngamma_m_hz = 0\n", [], "scenario.t_end_s"),
    ("[sweep]\nname = r\nvalus = 0.5\n", [], "sweep.valus"),
    ("[scenario]\nname = custom\n\n[outptu]\n", [], "[outptu]"),
    ("[scenario]\nname = fig4a\n\n[sweep]\nname = r\nvalues = 0.5\n", [], "sweep"),
    ("[scenario]\nname = fig4a\nmodel = full6\n", [], "scenario.model"),
]


@pytest.mark.parametrize(
    "cfg_text, overrides, field", BAD_INPUTS,
    ids=[o[0] if o else t.strip().split("\n")[-1] for t, o, _ in BAD_INPUTS],
)
def test_bad_input_is_config_error_naming_field(
    tmp_path, capsys, cfg_text, overrides, field
):
    target = "fig4a"
    if cfg_text is not None:
        target = tmp_path / "bad.cfg"
        target.write_text(cfg_text)
    argv = ["run", str(target), "--out", str(tmp_path / "out")]
    for pair in overrides:
        argv += ["--set", pair]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "out").exists()


def test_jobs_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig2c", "--jobs", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_shipped_configs_parse_and_equal_their_manifests(tmp_path):
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    figures = [p for p in paths if p.stem in SCENARIOS]
    assert len(paths) == 11 and len(figures) == 10
    for path in paths:
        parse_config_file(path)
    for path in figures:
        manifest = tmp_path / path.name
        write_manifest(ScenarioConfig(scenario=path.stem), manifest)
        assert manifest.read_bytes() == path.read_bytes(), path.name


def test_unknown_model_exit_code(tmp_path):
    assert main(["run", "custom", "--model", "nosuch", "--out", str(tmp_path)]) == 2


def test_instability_exit_code(tmp_path, capsys):
    code = main([
        "run", "custom", "--set", "delta_hz=-32.1e6", "--out", str(tmp_path),
    ])
    assert code == 3
    assert "instability" in capsys.readouterr().err


def test_reruns_byte_identical(tmp_path):
    names = ("fig2c_EN.csv", "fig2c_dP2.csv", "fig2c_manifest.cfg")
    assert main(["run", "fig2c", "--out", str(tmp_path)]) == 0
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert main(["run", "fig2c", "--out", str(tmp_path)]) == 0
    for n in names:
        assert (tmp_path / n).read_bytes() == first[n]


def test_manifest_replay_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([
        "run", "fig2c", "--set", "r=0.7", "--set", "power_w=2e-6",
        "--out", str(out1),
    ]) == 0
    manifest = out1 / "fig2c_manifest.cfg"
    assert manifest.is_file()
    cfg = parse_config_file(manifest)
    assert cfg.params_hz["power_w"] == 2e-6
    assert main(["run", str(manifest), "--out", str(out2)]) == 0
    for name in ("fig2c_EN.csv", "fig2c_dP2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_dir"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    assert main(["run", "fig2c", "--out", str(tmp_path / "ignored")]) == 0
    assert (target / "fig2c_EN.csv").is_file()
    assert not (tmp_path / "ignored").exists()


def test_config_file_validation_names_field(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = fig2c\n\n[params]\nbogus_hz = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(bad)
    assert "params.bogus_hz" in str(err.value)


def test_config_file_full_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[scenario]\nname = custom\nmodel = reduced3\nphase = -1\n"
        "n_samples = 50\nt_end_s = 2e-6\n\n"
        "[params]\nr = 0.3\n\n"
        "[sweep]\nname = temperature_k\nvalues = 0.0, 1e-3, 2e-3\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    cfg = parse_config_file(cfg_file)
    assert cfg.phase == "-1"
    assert cfg.sweep == ("temperature_k", [0.0, 1e-3, 2e-3])
    run(cfg)
    t_k = column(tmp_path / "out" / "custom_sweep_reduced3.csv", "temperature_k")
    assert list(t_k) == [0.0, 1e-3, 2e-3]


def test_csv_float_format_precision(tmp_path):
    assert main(["run", "fig2c", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fig2c_EN.csv") as f:
        f.readline()
        first = f.readline().strip().split(",")
    # scientific notation with >= 10 significant digits
    for cell in first:
        mantissa = cell.split("e")[0]
        assert "e" in cell
        assert len(mantissa.replace("-", "").replace(".", "")) >= 10
