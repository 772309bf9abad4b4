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
from .dynamics import TimeGrid, Trajectory, reservoir_parts, reservoir_steady
from .errors import ConfigError, ParameterError, SimulationError, per_entry
from .gaussian import quadrature_observables
from .generator import compile_injections, full_generator, reduced_generator
from .params import (
    BASELINE_HZ,
    PhysicalParams,
    baseline_params,
    check_r,
    derive,
    reservoir_correlations,
    stack_points,
)

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
            if not all(math.isfinite(v) for v in values):
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


def default_t_end(params: PhysicalParams, damping_times: float) -> float:
    # repo convention for trajectory scenarios: ten mirror damping times
    # (figS1/figS2 use five)
    if params.gamma_m == 0:
        raise ConfigError("scenario.t_end_s: required when gamma_m_hz = 0")
    return damping_times / params.gamma_m


def write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    """One line per row: every number as %.12e, the error column's text as is."""
    row_format = ",".join("{}" if name == "error" else "{:.12e}" for name in header)
    lines = [",".join(header), *(row_format.format(*row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


Curve = tuple[str, tuple[str, ...], list[tuple]]


def _evolve_model(model: str, params: PhysicalParams, r, grid: TimeGrid) -> list[Trajectory]:
    """One model's trajectories at the squeezing degrees r (params.r unread), an
    r family for reduced3 and full6; validate has refused unknown names."""
    if model == "reduced3":
        return reduced_model.evolve_r(params, r, grid)
    if model == "full6":
        return full_model.evolve_full_r(params, r, grid)
    if model == "reduced10":
        return [reduced_model.evolve_full10(params.with_(r=x), grid) for x in r]
    return [reduced_model.evolve_analytic(params.with_(r=x), grid) for x in r]


def _trajectory_curves(cfg: ScenarioConfig, models, params: PhysicalParams, r, names,
                       damping_times: float = 10.0) -> list[Curve]:
    """Trajectory curves up to cfg.t_end_s, or damping_times / gamma_m: at each
    squeezing degree of r (params.r unread) one per model, named by names in
    that order. A model's curves are one r family, evaluated by per_entry:
    the first curve to fail raises the error it raises alone."""
    r = np.asarray(r, dtype=float)

    def rows(model, k):
        check_r(r[k])
        t_end = cfg.t_end_s or default_t_end(params, damping_times)
        grid = trajectory_grid(params, t_end, cfg.n_samples)
        curves = []
        for traj in _evolve_model(model, params, r[np.atleast_1d(k)], grid):
            o = traj.observables
            columns = (traj.times, o.E_N, o.dP2_minus, o.dQ2_minus, o.theta, *o.phonon)
            curves.append(list(zip(*(column.tolist() for column in columns))))
        return curves

    cells = {}
    for j, model in enumerate(models):
        value, kept, failures = per_entry(lambda k, m=model: rows(m, k), np.arange(len(r)))
        cells.update(((k, j), exc) for k, exc in failures.items())
        cells.update(((k, j), rows_k) for k, rows_k in zip(kept.tolist(), value or ()))
    ordered = [cell for _, cell in sorted(cells.items())]
    if failed := [cell for cell in ordered if isinstance(cell, SimulationError)]:
        raise failed[0]
    return [(name, TRAJECTORY_COLUMNS, cell) for name, cell in zip(names, ordered)]


def _sweep_points(cfg: ScenarioConfig, name: str, values, **extra_hz):
    """(builds, r) of the points of a sweep along one parameter field.

    builds[k] is point k's PhysicalParams, or the SimulationError its
    parameters raise, and r[k] its squeezing degree. An r sweep makes one
    PhysicalParams for every point (its r unread) and checks each r with
    params.check_r, which refuses as PhysicalParams does; any other field
    makes one PhysicalParams per value.
    """
    if name == "r":
        base = _params(cfg, **extra_hz)
        r = np.asarray(values, dtype=float)
        _, _, failures = per_entry(lambda k: check_r(r[k]), np.arange(len(r)))
        return [failures.get(k, base) for k in range(len(r))], r
    builds = []
    for val in values:
        try:
            builds.append(_params(cfg, **extra_hz, **{name: val}))
        except SimulationError as exc:
            builds.append(exc)
    return builds, np.array([b.r if isinstance(b, PhysicalParams) else np.nan
                             for b in builds])


def _build_parts(model: str, points) -> tuple:
    """(x0, x1, x2, nbar0) of one model at the points, from one build.

    The r-independent steady parts, each with a leading axis of points:
    ReducedSystem's steady_parts of reduced.build_systems for reduced3 and
    reduced_analytic, dynamics.reservoir_parts of one compile_injections
    build for reduced10 and full6, full6's cut to the mirror block.
    """
    if model in ("reduced3", "reduced_analytic"):
        system = reduced_model.build_systems(points)
        return (*system.steady_parts(), system.nbar0)
    coeffs = derive(stack_points(points))
    generator = full_generator if model == "full6" else reduced_generator
    parts = reservoir_parts(compile_injections(generator, coeffs))
    if model == "full6":
        parts = [full_model.mirror_block(x) for x in parts]
    return (*parts, coeffs.nbar0)


def _steady_points(model: str, builds, r, phase):
    """One model's steady two-mirror covariances at many points, as one stack.

    builds and r are _sweep_points'. The distinct PhysicalParams among the
    points (one for an r curve, one per value on any other axis) are built
    together, by one errors.per_entry evaluation of _build_parts: one model
    build, one Hurwitz check and one solve for all of them, and a build
    that fails (a non-Hurwitz drift, say) fails all of its points with the
    error its own build raises. Every other point is one entry of one
    x0 + N x1 + M x2(z).

    Returns (V, nbar0, failures): V (n, 4, 4) and nbar0 (n,) are each
    point's covariance and thermal occupation (zero where it failed), and
    failures maps each failing point to its error, the parameter errors
    first and then the build errors, each in point order.
    """
    failures = {k: b for k, b in enumerate(builds) if isinstance(b, SimulationError)}
    slot = {}  # id of a distinct PhysicalParams -> its index among them
    index = {k: slot.setdefault(id(b), len(slot))
             for k, b in enumerate(builds) if k not in failures}
    distinct = list({id(builds[k]): builds[k] for k in index}.values())
    parts, built, failed = per_entry(
        lambda j: _build_parts(model, [distinct[i] for i in np.atleast_1d(j)]),
        np.arange(len(distinct)))
    failures.update((k, failed[j]) for k, j in index.items() if j in failed)
    row = dict(zip(built.tolist(), range(len(built))))  # a built point's row in parts
    live = [k for k, j in index.items() if j in row]
    V, nbar0 = np.zeros((len(builds), 4, 4)), np.zeros(len(builds))
    if live:
        x0, x1, x2, nbar0_live = (x[[row[index[k]] for k in live]] for x in parts)
        nbar0[live] = nbar0_live
        if model in ("reduced3", "reduced_analytic"):
            V[live] = reduced_model.steady_covariance((x0, x1, x2), nbar0_live,
                                                      r[live], phase)
        else:
            N, M = reservoir_correlations(r[live][:, None, None])
            V[live] = reservoir_steady((x0, x1, x2), N, M, phase)
    return V, nbar0, failures


def _steady_reports(cfg: ScenarioConfig, name: str, values, **extra_hz):
    """reduced3's steady criterion report along one parameter field.

    One criterion call reads the whole curve of _steady_points; the report's
    fields are arrays. The first failure raises: a point's parameters, then
    a build, then criterion's text "... at entry k".
    """
    builds, r = _sweep_points(cfg, name, values, **extra_hz)
    V, nbar0, failures = _steady_points("reduced3", builds, r, PHASES[cfg.phase])
    if failures:
        raise next(iter(failures.values()))
    return reduced_model.criterion(V, nbar0)


def _err_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


def _row(val, cells: tuple | SimulationError, n_out: int) -> tuple:
    """(value, *cells, ""), or n_out NaNs and the error's text."""
    if isinstance(cells, SimulationError):
        return (val, *[np.nan] * n_out, _err_text(cells))
    return (val, *cells, "")


def _model_rows(model: str, points, values, phase) -> list[tuple]:
    """Rows of one model at the points of a sweep, _sweep_points' (builds, r).

    The covariances are _steady_points', read by one errors.per_entry
    evaluation per curve: criterion for reduced3 and reduced_analytic,
    whose steady states are read through it and whose rows take the
    observables it read, and quadrature_observables for reduced10 and
    full6. A row fails with the text of its parameters, its build or its
    own evaluation (lost precision at large r, a criterion miss), and the
    other rows keep their values.
    """
    V, nbar0, cells = _steady_points(model, *points, phase)
    checked = model in ("reduced3", "reduced_analytic")

    def evaluate(k):
        if checked:
            return reduced_model.criterion(V[k], nbar0[k]).observables
        return quadrature_observables(V[k])

    live = np.array([k for k in range(len(values)) if k not in cells], dtype=int)
    obs, kept, failures = per_entry(evaluate, live)
    cells.update(failures)
    if len(kept):
        columns = (obs.E_N, obs.dP2_minus, obs.dQ2_minus, obs.theta)
        cells.update(zip(kept.tolist(), zip(*(c.tolist() for c in columns))))
    return [_row(val, cells[k], 4) for k, val in enumerate(values)]


def _label(x: float) -> str:
    return f"{x:g}"


def _scenario_fig2a(cfg: ScenarioConfig) -> list[Curve]:
    r = (0.0, 0.5, 1.0, 2.0)
    return _trajectory_curves(cfg, ("reduced3",), _params(cfg), r,
                              [f"fig2a_r{_label(x)}" for x in r])


def _scenario_fig2b(cfg: ScenarioConfig) -> list[Curve]:
    omega_m_hz = resolved_params_hz(cfg)["omega_m_hz"]
    ratios = (0.5, 1.0, 1.5)
    deltas_hz = [ratio * omega_m_hz for ratio in ratios]
    r = [resolved_params_hz(cfg)["r"]]
    curves = [curve for ratio, delta in zip(ratios, deltas_hz) for curve in _trajectory_curves(
        cfg, ("reduced3",), _params(cfg, delta_hz=delta), r, [f"fig2b_delta{_label(ratio)}"])]
    rep = _steady_reports(cfg, "delta_hz", deltas_hz)
    curves.append(
        ("fig2b_steady", ("delta_over_omega_m", "E_N", "dP2_minus"),
         list(zip(ratios, rep.E_N.tolist(), rep.dP2_minus.tolist())))
    )
    return curves


def _scenario_fig2c(cfg: ScenarioConfig) -> list[Curve]:
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    rep = _steady_reports(cfg, "r", r_values)
    return [
        ("fig2c_EN", ("r", "E_N"), list(zip(r_values, rep.E_N.tolist()))),
        ("fig2c_dP2", ("r", "dP2_minus"), list(zip(r_values, rep.dP2_minus.tolist()))),
    ]


def _scenario_fig2d(cfg: ScenarioConfig) -> list[Curve]:
    temps = np.linspace(0.0, 5e-3, 101)
    rep = _steady_reports(cfg, "temperature_k", temps)
    return [
        ("fig2d_EN", ("T_K", "E_N"), list(zip(temps, rep.E_N.tolist()))),
        ("fig2d_dP2", ("T_K", "dP2_minus"), list(zip(temps, rep.dP2_minus.tolist()))),
        ("fig2d_threshold", ("T_K", "threshold"),
         list(zip(temps, rep.threshold.tolist()))),
    ]


def _scenario_fig3a(cfg: ScenarioConfig) -> list[Curve]:
    """The three power curves are one _steady_points, so one build of their
    three points. Curve by curve, its first failure raises (parameters, then
    build), or one criterion reads it: what _steady_reports of each gives."""
    curves: list[Curve] = []
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    powers_uw = (0.01, 0.1, 2.0)
    points = [_sweep_points(cfg, "r", r_values, power_w=p_uw * 1e-6) for p_uw in powers_uw]
    V, nbar0, failures = _steady_points(
        "reduced3", [b for builds, _ in points for b in builds],
        np.concatenate([r for _, r in points]), PHASES[cfg.phase])
    for c, p_uw in enumerate(powers_uw):
        curve = range(c * len(r_values), (c + 1) * len(r_values))
        if failed := [exc for k, exc in failures.items() if k in curve]:
            raise failed[0]
        rep = reduced_model.criterion(V[curve], nbar0[curve])
        curves.append((f"fig3a_dP2_P{_label(p_uw)}uW", ("r", "dP2_minus"),
                       list(zip(r_values, rep.dP2_minus.tolist()))))
    return curves


def _scenario_fig3b(cfg: ScenarioConfig) -> list[Curve]:
    """One lockstep optimum search over all 25 powers; a power whose search
    fails fails its own row."""
    powers = np.geomspace(0.01e-6, 4e-6, 25)
    results = reduced_model.optimal_squeezings(
        [_params(cfg, power_w=P) for P in powers], PHASES[cfg.phase])

    def cells(opt):
        if isinstance(opt, SimulationError):
            return opt
        r_formula = np.nan if opt.r_formula is None else opt.r_formula
        return opt.r_numeric, r_formula, opt.E_N

    rows = [_row(P, cells(opt), 3) for P, opt in zip(powers, results)]
    return [
        ("fig3b_ropt",
         ("power_w", "r_opt_numeric", "r_opt_formula", "E_N_opt", "error"), rows)
    ]


def _adiabatic_rows(cfg: ScenarioConfig, sweep_values, sweep_field: str):
    """fig4's rows: one full.compare_adiabatics over the points whose
    parameters pass, so each point's full6 and reduced3 builds stay its own
    while the reduced3 solve and the variance read are one each. A failing
    point fails its own row, with its parameters' error or its entry's."""
    builds, _ = _sweep_points(cfg, sweep_field, sweep_values)
    live = [k for k, b in enumerate(builds) if isinstance(b, PhysicalParams)]
    cells = dict(enumerate(builds))
    for k, comp in zip(live, full_model.compare_adiabatics([builds[k] for k in live],
                                                           PHASES[cfg.phase])):
        cells[k] = comp if isinstance(comp, SimulationError) else (
            comp.steady_dp2_full, comp.steady_dp2_reduced, comp.steady_rel_deviation)
    return [_row(val, cells[k], 3) for k, val in enumerate(sweep_values)]


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


def _full_vs_reduced(cfg: ScenarioConfig, prefixes, r) -> list[Curve]:
    """Full and reduced trajectories at the supplement's temperature and
    damping, at each squeezing degree of r, each model's an r family."""
    kappa_hz = resolved_params_hz(cfg)["kappa_hz"]
    params = baseline_params(**{"temperature_k": 2.5e-3, "gamma_m_hz": 1.5e-3 * kappa_hz,
                                **cfg.params_hz})
    names = [f"{prefix}_{label}" for prefix in prefixes for label in ("full", "reduced")]
    return _trajectory_curves(cfg, ("full6", "reduced3"), params, r, names, 5.0)


def _scenario_figS1(cfg: ScenarioConfig) -> list[Curve]:
    r = (0.0, 1.0, 2.0)
    return _full_vs_reduced(cfg, [f"figS1_r{_label(x)}" for x in r], r)


def _scenario_figS2(cfg: ScenarioConfig) -> list[Curve]:
    return _full_vs_reduced(cfg, ["figS2"], (1.0,))


def _scenario_custom(cfg: ScenarioConfig) -> list[Curve]:
    models = cfg.models or ["reduced3"]
    if cfg.sweep is not None:
        name, values = cfg.sweep
        header = (name, "E_N", "dP2_minus", "dQ2_minus", "theta", "error")
        # the points are made and checked once, for every model
        points = _sweep_points(cfg, name, values)
        return [(f"custom_sweep_{model}", header,
                 _model_rows(model, points, values, PHASES[cfg.phase]))
                for model in models]
    params = _params(cfg)
    return _trajectory_curves(cfg, models, params, [params.r],
                              [f"custom_{model}" for model in models])


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
