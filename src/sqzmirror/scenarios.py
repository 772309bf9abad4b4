"""Scenario definitions and the configuration-driven runner.

Every figure-style scenario resolves to a set of CSV curves plus a manifest
that fully determines the run: replaying the manifest reproduces the output
byte for byte. Frequencies in configs are ordinary Hz (converted by 2*pi),
power in W, temperature in K.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import full as full_model
from . import reduced as reduced_model
from .dynamics import TimeGrid, Trajectory, periodic_steady_state, steady_at_phase
from .errors import ConfigError, ParameterError, SimulationError
from .gaussian import quadrature_observables
from .generator import compile_generator, reduced_generator
from .params import BASELINE_HZ, PhysicalParams, baseline_params, derive

OUTPUT_DIR_ENV = "SQZ_OUTPUT_DIR"

PARAM_KEYS = tuple(BASELINE_HZ)
MODELS = ("reduced3", "reduced10", "reduced_analytic", "full6")
SCENARIOS = (
    "fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b",
    "fig4a", "fig4b", "figS1", "figS2", "custom",
)
# CLI and config spelling of the reservoir phase -> model argument
PHASES = {"+1": 1.0, "-1": -1.0, "average": "average"}

TRAJECTORY_COLUMNS = (
    "t_s", "E_N", "dP2_minus", "dQ2_minus", "theta", "n_phonon_1", "n_phonon_2",
)


@dataclass
class ScenarioConfig:
    scenario: str
    params_hz: dict[str, float] = field(default_factory=dict)
    models: list[str] = field(default_factory=list)
    phase: str = "+1"
    sweep: tuple[str, list[float]] | None = None
    output_dir: str = "out"
    t_end_s: float | None = None
    n_samples: int = 800

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario.name: unknown scenario {self.scenario!r}")
        for key, val in self.params_hz.items():
            if key not in PARAM_KEYS:
                raise ConfigError(f"params.{key}: unknown parameter field")
            if not math.isfinite(val):
                raise ConfigError(f"params.{key}: must be finite, got {val!r}")
        try:
            derive(_params(self))
        except ParameterError as exc:
            raise ConfigError(f"params: {exc}") from exc
        for m in self.models:
            if m not in MODELS:
                raise ConfigError(f"scenario.model: unknown model {m!r}")
        if self.models and self.scenario != "custom":
            raise ConfigError(f"scenario.model: only the custom scenario takes a "
                              f"model, not {self.scenario!r}")
        if self.phase not in PHASES:
            raise ConfigError(f"scenario.phase: must be one of {tuple(PHASES)}")
        if self.sweep is not None:
            name, values = self.sweep
            if self.scenario != "custom":
                raise ConfigError(f"sweep: only the custom scenario takes a sweep, "
                                  f"not {self.scenario!r}")
            if name not in PARAM_KEYS:
                raise ConfigError(f"sweep.name: {name!r} is not a parameter field")
            if len(values) == 0:
                raise ConfigError("sweep.values: empty value list")
            if not all(np.isfinite(v) for v in values):
                raise ConfigError("sweep.values: values must be finite")
        if self.t_end_s is not None and not (math.isfinite(self.t_end_s)
                                             and self.t_end_s > 0):
            raise ConfigError(f"scenario.t_end_s: must be finite and > 0, "
                              f"got {self.t_end_s!r}")
        if self.n_samples < 2:
            raise ConfigError("scenario.n_samples: must be >= 2")


# Every section and key a config file may hold; anything else is rejected.
CONFIG_KEYS = {
    "scenario": ("name", "model", "phase", "n_samples", "t_end_s"),
    "params": PARAM_KEYS,
    "sweep": ("name", "values"),
    "output": ("dir",),
}


def parse_config_file(path: str | Path) -> ScenarioConfig:
    """Read a flat sectioned key-value config (same format as manifests)."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"[{section}]: unknown section")
        for key in parser[section]:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    cfg = ScenarioConfig(scenario="custom")
    if parser.has_section("scenario"):
        sec = parser["scenario"]
        cfg.scenario = sec.get("name", cfg.scenario).strip()
        if "model" in sec:
            cfg.models = [m.strip() for m in sec["model"].split(",") if m.strip()]
        cfg.phase = sec.get("phase", cfg.phase).strip()
        for key in ("t_end_s", "n_samples"):
            if key in sec:
                set_field(cfg, key, sec[key], f"scenario.{key}")
    if parser.has_section("params"):
        for key, val in parser["params"].items():
            set_field(cfg, key, val, f"params.{key}")
    if parser.has_section("sweep"):
        sec = parser["sweep"]
        if "name" not in sec or "values" not in sec:
            raise ConfigError("sweep section needs both 'name' and 'values'")
        values = [
            _parse_number(v, "sweep.values")
            for v in sec["values"].replace("\n", ",").split(",")
            if v.strip()
        ]
        cfg.sweep = (sec["name"].strip(), values)
    if parser.has_section("output"):
        cfg.output_dir = parser["output"].get("dir", cfg.output_dir).strip()
    cfg.validate()
    return cfg


def _parse_number(text: str, where: str, integer: bool = False) -> float | int:
    """The number in a config value or --set override; `where` names the field."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: not a number: {text!r}") from exc
    if not integer:
        return value
    if not value.is_integer():
        raise ConfigError(f"{where}: not an integer: {text!r}")
    return int(value)


def set_field(cfg: ScenarioConfig, key: str, text: str, where: str) -> None:
    """Set t_end_s, n_samples or a parameter field from its text form."""
    if key == "t_end_s":
        cfg.t_end_s = _parse_number(text, where)
    elif key == "n_samples":
        cfg.n_samples = _parse_number(text, where, integer=True)
    elif key in PARAM_KEYS:
        cfg.params_hz[key] = _parse_number(text, where)
    else:
        raise ConfigError(f"{where}: unknown parameter field")


def resolved_params_hz(cfg: ScenarioConfig) -> dict[str, float]:
    return {**BASELINE_HZ, **cfg.params_hz}


def _params(cfg: ScenarioConfig, **extra_hz) -> PhysicalParams:
    merged = dict(cfg.params_hz)
    merged.update(extra_hz)
    return baseline_params(**merged)


def trajectory_grid(params: PhysicalParams, t_end: float, n_samples: int) -> TimeGrid:
    """Default plot grid: the step resolves the fastest model frequency."""
    fastest = max(params.omega_m, abs(params.delta), params.kappa)
    n_steps = max(int(np.ceil(t_end * fastest / 0.0125)), n_samples)
    stride = max(n_steps // n_samples, 1)
    return TimeGrid(0.0, t_end, n_steps, sample_stride=stride)


def default_t_end(params: PhysicalParams, damping_times: float = 10.0) -> float:
    # repo convention for trajectory scenarios: ten mirror damping times
    # (figS1/figS2 use five)
    if params.gamma_m == 0:
        raise ConfigError("scenario.t_end_s: required when gamma_m_hz = 0")
    return damping_times / params.gamma_m


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return f"{x:.12e}"


def write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


Curve = tuple[str, tuple[str, ...], list[tuple]]


def _evolve_model(model: str, params: PhysicalParams, grid: TimeGrid) -> Trajectory:
    if model == "reduced3":
        return reduced_model.evolve(params, grid)
    if model == "reduced10":
        return reduced_model.evolve_full10(params, grid)
    if model == "reduced_analytic":
        return reduced_model.evolve_analytic(params, grid)
    if model == "full6":
        return full_model.evolve_full(params, grid)
    raise ConfigError(f"unknown model {model!r}")


def _trajectory_curve(cfg: ScenarioConfig, name: str, model: str,
                      params: PhysicalParams, damping_times: float = 10.0) -> Curve:
    """One trajectory curve up to cfg.t_end_s, or damping_times / gamma_m."""
    t_end = cfg.t_end_s or default_t_end(params, damping_times)
    grid = trajectory_grid(params, t_end, cfg.n_samples)
    traj = _evolve_model(model, params, grid)
    o = traj.observables
    columns = (traj.times, o.E_N, o.dP2_minus, o.dQ2_minus, o.theta, *o.phonon)
    rows = list(zip(*(column.tolist() for column in columns)))
    return name, TRAJECTORY_COLUMNS, rows


def _steady_covariance(model: str, params: PhysicalParams, phase) -> np.ndarray:
    """Steady two-mirror covariance of one model at the reservoir phase."""
    if model == "full6":
        return full_model.mirror_block(full_model.steady_full(params, phase))
    if model in ("reduced3", "reduced_analytic"):
        return reduced_model.steady_state(params, phase)[0]
    if model == "reduced10":
        eqs = compile_generator(reduced_generator(derive(params)))
        return steady_at_phase(*periodic_steady_state(eqs), phase)
    raise ConfigError(f"unknown model {model!r}")


def _steady_reports(cfg: ScenarioConfig, name: str, values, **extra_hz) -> list:
    """Reduced-model steady criterion reports along one parameter field."""
    phase = PHASES[cfg.phase]
    return [
        reduced_model.steady_state(_params(cfg, **extra_hz, **{name: v}), phase)[1]
        for v in values
    ]


def _err_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


def _guarded_rows(values, point, n_out: int) -> list[tuple]:
    """One row (value, *point(value), "") per value.

    A point that raises SimulationError gets n_out NaNs and the error text,
    and the sweep goes on.
    """
    rows = []
    for val in values:
        try:
            rows.append((val, *point(val), ""))
        except SimulationError as exc:
            rows.append((val, *[np.nan] * n_out, _err_text(exc)))
    return rows


def _label(x: float) -> str:
    return f"{x:g}"


def _scenario_fig2a(cfg: ScenarioConfig) -> list[Curve]:
    return [_trajectory_curve(cfg, f"fig2a_r{_label(r)}", "reduced3", _params(cfg, r=r))
            for r in (0.0, 0.5, 1.0, 2.0)]


def _scenario_fig2b(cfg: ScenarioConfig) -> list[Curve]:
    omega_m_hz = resolved_params_hz(cfg)["omega_m_hz"]
    ratios = (0.5, 1.0, 1.5)
    deltas_hz = [ratio * omega_m_hz for ratio in ratios]
    curves = [_trajectory_curve(cfg, f"fig2b_delta{_label(ratio)}", "reduced3",
                                _params(cfg, delta_hz=delta_hz))
              for ratio, delta_hz in zip(ratios, deltas_hz)]
    reports = _steady_reports(cfg, "delta_hz", deltas_hz)
    curves.append(
        ("fig2b_steady", ("delta_over_omega_m", "E_N", "dP2_minus"),
         [(ratio, rep.E_N, rep.dP2_minus) for ratio, rep in zip(ratios, reports)])
    )
    return curves


def _scenario_fig2c(cfg: ScenarioConfig) -> list[Curve]:
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    reports = _steady_reports(cfg, "r", r_values)
    en_rows = [(r, rep.E_N) for r, rep in zip(r_values, reports)]
    dp_rows = [(r, rep.dP2_minus) for r, rep in zip(r_values, reports)]
    return [
        ("fig2c_EN", ("r", "E_N"), en_rows),
        ("fig2c_dP2", ("r", "dP2_minus"), dp_rows),
    ]


def _scenario_fig2d(cfg: ScenarioConfig) -> list[Curve]:
    temps = np.linspace(0.0, 5e-3, 101)
    reports = _steady_reports(cfg, "temperature_k", temps)
    return [
        ("fig2d_EN", ("T_K", "E_N"), [(T, rep.E_N) for T, rep in zip(temps, reports)]),
        ("fig2d_dP2", ("T_K", "dP2_minus"),
         [(T, rep.dP2_minus) for T, rep in zip(temps, reports)]),
        ("fig2d_threshold", ("T_K", "threshold"),
         [(T, rep.threshold) for T, rep in zip(temps, reports)]),
    ]


def _scenario_fig3a(cfg: ScenarioConfig) -> list[Curve]:
    curves: list[Curve] = []
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    for p_uw in (0.01, 0.1, 2.0):
        reports = _steady_reports(cfg, "r", r_values, power_w=p_uw * 1e-6)
        rows = [(r, rep.dP2_minus) for r, rep in zip(r_values, reports)]
        curves.append((f"fig3a_dP2_P{_label(p_uw)}uW", ("r", "dP2_minus"), rows))
    return curves


def _scenario_fig3b(cfg: ScenarioConfig) -> list[Curve]:
    phase = PHASES[cfg.phase]

    def point(P: float):
        opt = reduced_model.optimal_squeezing(_params(cfg, power_w=P), phase=phase)
        r_formula = np.nan if opt.r_formula is None else opt.r_formula
        return opt.r_numeric, r_formula, opt.E_N

    rows = _guarded_rows(np.geomspace(0.01e-6, 4e-6, 25), point, 3)
    return [
        ("fig3b_ropt",
         ("power_w", "r_opt_numeric", "r_opt_formula", "E_N_opt", "error"), rows)
    ]


def _adiabatic_rows(cfg: ScenarioConfig, sweep_values, sweep_field: str):
    phase = PHASES[cfg.phase]

    def point(val: float):
        comp = full_model.compare_adiabatic(_params(cfg, **{sweep_field: val}),
                                            phase=phase)
        return comp.steady_dp2_full, comp.steady_dp2_reduced, comp.steady_rel_deviation

    return _guarded_rows(sweep_values, point, 3)


def _scenario_fig4a(cfg: ScenarioConfig) -> list[Curve]:
    kappa_hz = resolved_params_hz(cfg)["kappa_hz"]
    ratios = np.geomspace(1.5e-5, 1.0, 25)
    rows = _adiabatic_rows(cfg, [r * kappa_hz for r in ratios], "gamma_m_hz")
    rows = [(row[0] / kappa_hz,) + row for row in rows]
    return [
        ("fig4a_dP2",
         ("gamma_over_kappa", "gamma_m_hz", "dP2_full", "dP2_reduced",
          "rel_deviation", "error"),
         rows)
    ]


def _scenario_fig4b(cfg: ScenarioConfig) -> list[Curve]:
    kappa_hz = resolved_params_hz(cfg)["kappa_hz"]
    powers = np.geomspace(0.1e-6, 32e-6, 25)
    base = dict(cfg.params_hz)
    base.setdefault("gamma_m_hz", kappa_hz)
    cfg_b = dataclasses.replace(cfg, params_hz=base)
    rows = _adiabatic_rows(cfg_b, powers, "power_w")
    return [
        ("fig4b_dP2",
         ("power_w", "dP2_full", "dP2_reduced", "rel_deviation", "error"), rows)
    ]


def _full_vs_reduced(cfg: ScenarioConfig, prefix: str, r: float) -> list[Curve]:
    """Full and reduced trajectories at the supplement's temperature and damping."""
    kappa_hz = resolved_params_hz(cfg)["kappa_hz"]
    params = baseline_params(**{"temperature_k": 2.5e-3, "gamma_m_hz": 1.5e-3 * kappa_hz,
                                **cfg.params_hz, "r": r})
    return [_trajectory_curve(cfg, f"{prefix}_{label}", model, params, 5.0)
            for model, label in (("full6", "full"), ("reduced3", "reduced"))]


def _scenario_figS1(cfg: ScenarioConfig) -> list[Curve]:
    return [curve for r in (0.0, 1.0, 2.0)
            for curve in _full_vs_reduced(cfg, f"figS1_r{_label(r)}", r)]


def _scenario_figS2(cfg: ScenarioConfig) -> list[Curve]:
    return _full_vs_reduced(cfg, "figS2", 1.0)


def _scenario_custom(cfg: ScenarioConfig) -> list[Curve]:
    models = cfg.models or ["reduced3"]
    if cfg.sweep is not None:
        name, values = cfg.sweep
        phase = PHASES[cfg.phase]
        curves: list[Curve] = []
        for model in models:
            def point(val: float):
                V = _steady_covariance(model, _params(cfg, **{name: val}), phase)
                obs = quadrature_observables(V)
                return obs.E_N, obs.dP2_minus, obs.dQ2_minus, obs.theta

            curves.append(
                (f"custom_sweep_{model}",
                 (name, "E_N", "dP2_minus", "dQ2_minus", "theta", "error"),
                 _guarded_rows(values, point, 4))
            )
        return curves
    params = _params(cfg)
    return [_trajectory_curve(cfg, f"custom_{model}", model, params)
            for model in models]


_SCENARIO_FNS = {
    "fig2a": _scenario_fig2a,
    "fig2b": _scenario_fig2b,
    "fig2c": _scenario_fig2c,
    "fig2d": _scenario_fig2d,
    "fig3a": _scenario_fig3a,
    "fig3b": _scenario_fig3b,
    "fig4a": _scenario_fig4a,
    "fig4b": _scenario_fig4b,
    "figS1": _scenario_figS1,
    "figS2": _scenario_figS2,
    "custom": _scenario_custom,
}


def write_manifest(cfg: ScenarioConfig, path: Path) -> None:
    """Materialize every default so the file replays to identical output."""
    lines = ["[scenario]", f"name = {cfg.scenario}"]
    if cfg.scenario == "custom":
        lines.append(f"model = {', '.join(cfg.models or ['reduced3'])}")
    lines.append(f"phase = {cfg.phase}")
    lines.append(f"n_samples = {cfg.n_samples}")
    if cfg.t_end_s is not None:
        lines.append(f"t_end_s = {cfg.t_end_s!r}")
    lines.append("")
    lines.append("[params]")
    for key, val in resolved_params_hz(cfg).items():
        lines.append(f"{key} = {val!r}")
    if cfg.sweep is not None:
        lines += ["", "[sweep]", f"name = {cfg.sweep[0]}",
                  "values = " + ", ".join(repr(v) for v in cfg.sweep[1])]
    lines += ["", "[output]", f"dir = {cfg.output_dir}", ""]
    path.write_text("\n".join(lines), encoding="ascii")


def run(cfg: ScenarioConfig) -> list[Path]:
    """Execute a scenario: write one CSV per curve plus the manifest.

    Returns the written paths. Raises ConfigError / SimulationError for the
    CLI to map onto exit codes.
    """
    cfg.validate()
    curves = _SCENARIO_FNS[cfg.scenario](cfg)
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, header, rows in curves:
        path = out_dir / f"{name}.csv"
        write_csv(path, header, rows)
        written.append(path)
    manifest = out_dir / f"{cfg.scenario}_manifest.cfg"
    write_manifest(cfg, manifest)
    written.append(manifest)
    return written
