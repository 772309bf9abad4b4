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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import full as full_model
from . import reduced as reduced_model
from .dynamics import TimeGrid, Trajectory
from .errors import ConfigError, ParameterError, SimulationError, per_entry
from .gaussian import quadrature_observables
from .params import BASELINE_HZ, PhysicalParams, baseline_params, check_r, derive

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
    """Read a flat sectioned key-value config (same format as manifests).

    Checks its structure only: sections, keys and numbers. run validates the
    config, after any overrides. Values are read as written: "%" is an
    ordinary character."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path}: not UTF-8 text: {exc}") from exc
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
    """Default plot grid: the step resolves the fastest model frequency. A
    step count that is not finite, or whose sample indices (an arange to
    n_steps + 1) overflow int64, is refused before any array is made."""
    fastest = max(params.omega_m, abs(params.delta), params.kappa)
    steps = np.ceil(t_end * fastest / 0.0125)
    if not (steps < 2**63 - 2 and n_samples < 2**63 - 2):
        raise ConfigError(f"scenario.t_end_s: a grid to {t_end!r} s with n_samples = "
                          f"{n_samples} needs more steps than int64 indices hold")
    n_steps = max(int(steps), n_samples)
    stride = max(n_steps // n_samples, 1)
    return TimeGrid(0.0, t_end, n_steps, sample_stride=stride)


def default_t_end(params: PhysicalParams, damping_times: float) -> float:
    # repo convention for trajectory scenarios: ten mirror damping times
    # (figS1/figS2 use five)
    if params.gamma_m == 0:
        raise ConfigError("scenario.t_end_s: required when gamma_m_hz = 0")
    return damping_times / params.gamma_m


# _e12_rows writes each cell into a slot of 24 bytes, six native uint32
# words: a NUL, the minus sign or a NUL, the leading digit and "."; three
# groups of four digits; "e", the exponent's sign and its two or three
# digits, the cell's terminator ("," or the row's end) and NULs. No printed
# byte is a NUL, so the NULs are all that a slot drops.
_E12_EMAX = 279
_E12_ENDS = (b",", b"\n", b",\n")  # the terminators _EXP holds


def _e12_tables():
    """(_POW10, _DIGITS4, _HEAD, _EXP): _POW10[e + _E12_EMAX] is
    float("1e{12 - e}"), correctly rounded; _DIGITS4[g] the four digits of
    g < 10^4 and _HEAD[10 * minus + d] the first word of a cell with
    leading digit d, as uint32; _EXP[t, e + _E12_EMAX] the last two words,
    for terminator _E12_ENDS[t], as uint64.

    The byte tables are built by copying the ten digits around: every
    integer ufunc a table called would map pages of numpy's code that
    nothing else in a run uses."""
    pow10 = np.array([float(f"1e{k}") for k in range(12 + _E12_EMAX, 11 - _E12_EMAX, -1)])
    d = np.frombuffer(b"0123456789", np.uint8)
    digits = np.stack([np.tile(np.repeat(d, 10**p), 10**(3 - p)) for p in (3, 2, 1, 0)], axis=1)
    head = np.zeros((2, 10, 4), np.uint8)
    head[1, :, 1], head[..., 2], head[..., 3] = ord("-"), d, ord(".")
    n = 2 * _E12_EMAX + 1
    exponent = digits[np.concatenate([np.arange(_E12_EMAX, 0, -1), np.arange(_E12_EMAX + 1)])]
    exp = np.zeros((len(_E12_ENDS), n, 8), np.uint8)
    exp[..., 0] = ord("e")
    exp[:, :_E12_EMAX, 1], exp[:, _E12_EMAX:, 1] = ord("-"), ord("+")
    # the rows of |e| >= 100 (first and last) take three digits, the others two
    for rows, width in ((slice(0, _E12_EMAX - 99), 3), (slice(_E12_EMAX - 99, _E12_EMAX + 100), 2),
                        (slice(_E12_EMAX + 100, n), 3)):
        exp[:, rows, 2:2 + width] = exponent[rows, 4 - width:]
        for t, end in enumerate(_E12_ENDS):
            exp[t, rows, 2 + width:2 + width + len(end)] = np.frombuffer(end, np.uint8)
    return (pow10, digits.view(np.uint32).ravel(), head.view(np.uint32).ravel(),
            exp.view(np.uint64)[..., 0])


_POW10, _DIGITS4, _HEAD, _EXP = _e12_tables()
_E12_BLOCK = 4096  # cells per block: every temporary stays below glibc's 128 KB mmap threshold


def _e12_rows(x: np.ndarray, end: bytes) -> np.ndarray:
    """The bytes of the rows of x (n, c), each cell as format(v, ".12e"),
    the cells of a row joined by "," and each row ended by end (b"\\n" or
    b",\\n").

    For finite v != 0 with e = floor(log10|v|), format prints the 13 digits
    of q = round(m_exact), m_exact = |v| 10^(12 - e) in [1e12, 1e13), and e;
    CPython's conversion is correctly rounded, ties to even. Here
    m = |v| * P[e] in floating point, with P[e] = _POW10[e + _E12_EMAX] the
    correctly rounded 10^(12 - e), for e clipped to [-279, 279]. P[e] is off
    by at most 2^-53 relative (exact for 0 <= 12 - e <= 22) and the product
    rounds once more, so |m - m_exact| <= m_exact (2^-52 + 2^-106), below
    1e13 * 2^-52 * (1 + 2^-54), about 2.2e-3, whenever m_exact < 1e13. A
    cell takes the fast path only when m lies in [1e12 + 1, 1e13 - 1): then
    m_exact lies in [1e12, 1e13), so the clipped e is floor(log10|v|)
    however log10 rounded, and rint(m) has 13 digits; and when
    |m - rint(m)| < 1/2 - 2^-8: m_exact is within 2.2e-3 < 2^-8 of m, on
    the same side of every half-integer, so rint(m) = round(m_exact) and no
    tie reaches the fast path. Zeros print as q = 0, e = 0 with their sign.
    Every other cell (NaN, inf, |e| >= 280, subnormal, or inside the
    rounding margin) takes format(v, ".12e") itself.
    """
    n, c = x.shape
    v = x.reshape(-1)
    a = np.abs(v)
    # zeros, NaN and inf read as 1: e = 0, and m = 1e12 leaves the fast path
    a = np.where((a > 0) & (a < np.inf), a, 1.0)
    # e + _E12_EMAX, taken from the tables with e clipped to [-279, 279]
    at = (np.floor(np.log10(a)) + _E12_EMAX).astype(np.intp)
    m = a * _POW10.take(at, mode="clip")
    q = np.rint(m)
    fast = (m >= 1e12 + 1) & (m < 1e13 - 1) & (np.abs(m - q) < 0.5 - 2**-8)
    q = np.where(fast, q, 0.0)  # zeros print q = 0
    # q's digits d0 g1 g2 g3, d0 alone and g three groups of four; each
    # quotient of these integers below 1e13 is exact
    hi = np.floor(q / 1e8)
    lo = q - hi * 1e8
    d0 = np.floor(hi / 1e4)
    g2 = np.floor(lo / 1e4)
    words = np.empty((len(v), 6), np.uint32)
    words[:, 0] = _HEAD[np.where(np.signbit(v), d0 + 10, d0).astype(np.intp)]
    words[:, 1] = _DIGITS4[(hi - d0 * 1e4).astype(np.intp)]
    words[:, 2] = _DIGITS4[g2.astype(np.intp)]
    words[:, 3] = _DIGITS4[(lo - g2 * 1e4).astype(np.intp)]
    # the last column's exponents from the table of the row's end
    at.reshape(n, c)[:, -1] += _E12_ENDS.index(end) * _EXP.shape[1]
    words.view(np.uint64)[:, 2] = _EXP.take(at, mode="clip")
    cells = words.view(np.uint8)
    slow = np.flatnonzero(~fast & (v != 0))
    if len(slow):
        texts = "".join((format(u, ".12e") + (end.decode() if k % c == c - 1 else ",")
                         ).ljust(23, "\0") for k, u in zip(slow.tolist(), v[slow].tolist()))
        cells[slow, 1:] = np.frombuffer(texts.encode("ascii"), np.uint8).reshape(-1, 23)
    cells = cells.reshape(-1)
    return cells[cells != 0]


def write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    """One line per row: every number as format(x, ".12e"), written in blocks
    of rows by _e12_rows, then an "error" column's text as is (an "error"
    column comes last).

    rows is a float array (n, len(header)) or a list of tuples.
    """
    texts = [row[-1] for row in rows] if header[-1] == "error" else None
    x = np.asarray(rows if texts is None else [row[:-1] for row in rows], dtype=float)
    x = x.reshape(len(rows), len(header) - (texts is not None))
    step = max(_E12_BLOCK // x.shape[1], 1)
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, len(x), step):
            block = _e12_rows(x[start:start + step], b"\n" if texts is None else b",\n")
            own = [t.encode("ascii") for t in texts[start:start + step]] if texts else []
            if any(own):  # each text goes before its row's "\n"
                ends = np.flatnonzero(block == ord("\n"))
                block = np.insert(block, np.repeat(ends, [len(t) for t in own]),
                                  np.frombuffer(b"".join(own), np.uint8))
            out.write(block)


Curve = tuple[str, tuple[str, ...], np.ndarray | list[tuple]]


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
            curves.append(np.stack((traj.times, o.E_N, o.dP2_minus, o.dQ2_minus, o.theta,
                                    *o.phonon), axis=1))
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
            builds.append(baseline_params(**{**cfg.params_hz, **extra_hz, name: val}))
        except SimulationError as exc:
            builds.append(exc)
    return builds, np.array([b.r if isinstance(b, PhysicalParams) else np.nan
                             for b in builds])


def _steady_reports(cfg: ScenarioConfig, name: str, values, extras) -> list:
    """reduced3's steady criterion reports along one parameter field, one
    curve per dict of extra parameters in extras.

    The curves' points are one reduced.steady_points, so one build of their
    distinct points, and one criterion call reads each curve; the reports'
    fields are arrays. Curve by curve, the first failure raises: a point's
    parameters, then a build, then criterion's text "... at entry k".
    """
    points = [_sweep_points(cfg, name, values, **extra_hz) for extra_hz in extras]
    V, nbar0, failures = reduced_model.steady_points(
        ["reduced3"], [b for builds, _ in points for b in builds],
        np.concatenate([r for _, r in points]), PHASES[cfg.phase])["reduced3"]
    reports = []
    for c in range(len(extras)):
        curve = range(c * len(values), (c + 1) * len(values))
        if failed := [exc for k, exc in failures.items() if k in curve]:
            raise failed[0]
        reports.append(reduced_model.criterion(V[curve], nbar0[curve]))
    return reports


def _err_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


def _row(val, cells: tuple | SimulationError, n_out: int) -> tuple:
    """(value, *cells, ""), or n_out NaNs and the error's text."""
    if isinstance(cells, SimulationError):
        return (val, *[np.nan] * n_out, _err_text(cells))
    return (val, *cells, "")


def _sweep_rows(models, points, values, phase) -> dict[str, list[tuple]]:
    """{model: rows} of the models at the points of a sweep, _sweep_points'
    (builds, r).

    The covariances are reduced.steady_points', read by one errors.per_entry
    evaluation per solve: criterion for reduced3 and reduced_analytic,
    whose steady states are read through it and whose rows (one list for
    both) take the observables it read, and quadrature_observables for
    reduced10 and full6. A row fails with the text of its parameters, its build or its
    own evaluation (lost precision at large r, a criterion miss), and the
    other rows keep their values.
    """
    steady = reduced_model.steady_points(models, *points, phase)
    rows = {}
    for model in models:
        solve = reduced_model.SOLVES[model]
        if solve in rows:
            continue
        V, nbar0, cells = steady[model]
        cells = dict(cells)

        def evaluate(k):
            if solve == "reduced3":
                return reduced_model.criterion(V[k], nbar0[k]).observables
            return quadrature_observables(V[k])

        live = np.array([k for k in range(len(values)) if k not in cells], dtype=int)
        obs, kept, failures = per_entry(evaluate, live)
        cells.update(failures)
        if len(kept):
            columns = (obs.E_N, obs.dP2_minus, obs.dQ2_minus, obs.theta)
            cells.update(zip(kept.tolist(), zip(*(c.tolist() for c in columns))))
        rows[solve] = [_row(val, cells[k], 4) for k, val in enumerate(values)]
    return {model: rows[reduced_model.SOLVES[model]] for model in models}


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
    (rep,) = _steady_reports(cfg, "delta_hz", deltas_hz, [{}])
    curves.append(
        ("fig2b_steady", ("delta_over_omega_m", "E_N", "dP2_minus"),
         list(zip(ratios, rep.E_N.tolist(), rep.dP2_minus.tolist())))
    )
    return curves


def _scenario_fig2c(cfg: ScenarioConfig) -> list[Curve]:
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    (rep,) = _steady_reports(cfg, "r", r_values, [{}])
    return [
        ("fig2c_EN", ("r", "E_N"), list(zip(r_values, rep.E_N.tolist()))),
        ("fig2c_dP2", ("r", "dP2_minus"), list(zip(r_values, rep.dP2_minus.tolist()))),
    ]


def _scenario_fig2d(cfg: ScenarioConfig) -> list[Curve]:
    temps = np.linspace(0.0, 5e-3, 101)
    (rep,) = _steady_reports(cfg, "temperature_k", temps, [{}])
    return [
        ("fig2d_EN", ("T_K", "E_N"), list(zip(temps, rep.E_N.tolist()))),
        ("fig2d_dP2", ("T_K", "dP2_minus"), list(zip(temps, rep.dP2_minus.tolist()))),
        ("fig2d_threshold", ("T_K", "threshold"),
         list(zip(temps, rep.threshold.tolist()))),
    ]


def _scenario_fig3a(cfg: ScenarioConfig) -> list[Curve]:
    r_values = np.arange(0.0, 2.5 + 1e-12, 0.025)
    powers_uw = (0.01, 0.1, 2.0)
    reports = _steady_reports(cfg, "r", r_values, [{"power_w": p_uw * 1e-6} for p_uw in powers_uw])
    return [(f"fig3a_dP2_P{_label(p_uw)}uW", ("r", "dP2_minus"),
             list(zip(r_values, rep.dP2_minus.tolist())))
            for p_uw, rep in zip(powers_uw, reports)]


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
    """fig4's rows: one full.compare_adiabatics over the sweep's points. A
    failing point fails its own row, with its parameters' error or its
    entry's."""
    def cells(comp):
        if isinstance(comp, SimulationError):
            return comp
        return comp.steady_dp2_full, comp.steady_dp2_reduced, comp.steady_rel_deviation

    comps = full_model.compare_adiabatics(_sweep_points(cfg, sweep_field, sweep_values)[0],
                                          PHASES[cfg.phase])
    return [_row(val, cells(comp), 3) for val, comp in zip(sweep_values, comps)]


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
        # the points are made, checked and built once, for every model
        rows = _sweep_rows(models, _sweep_points(cfg, name, values), values,
                           PHASES[cfg.phase])
        return [(f"custom_sweep_{model}", header, rows[model]) for model in models]
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
    path.write_text("\n".join(lines), encoding="utf-8")


def run(cfg: ScenarioConfig) -> list[Path]:
    """Execute a scenario: write one CSV per curve plus the manifest.

    Returns the written paths. Raises ConfigError / SimulationError for the
    CLI to map onto exit codes.
    """
    cfg.validate()
    curves = _SCENARIO_FNS[cfg.scenario](cfg)
    out_dir = Path(cfg.output_dir)
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
