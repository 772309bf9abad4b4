"""Seeded inputs for the benchmark workloads.

Each workload is a fixed list of ``sqzmirror run`` invocations: the shipped
figure scenarios it stresses (checked against recorded reference values),
plus ``custom`` runs whose parameters are drawn from the seed (checked by
comparing models that must agree).

Every drawn point lies inside the ranges the shipped figures already cover
and keeps ``delta = omega_m`` (red-detuned, stable drift), so every point
is expected to succeed; a failure is a defect, not bad luck.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("trajectories", "r_sweeps", "param_sweeps")

FIXED_SCENARIOS = {
    "trajectories": ("fig2a", "fig2b", "figS1", "figS2"),
    "r_sweeps": ("fig2c", "fig3a", "fig3b"),
    "param_sweeps": ("fig2d", "fig4a", "fig4b"),
}

KAPPA_HZ = 6.2e6  # shipped baseline cavity damping

# Ranges of the shipped figures: power from fig3b, temperature from fig2d,
# squeezing degree from fig2c/fig3a, mirror damping from the baseline
# (1.5e-4 kappa) down to fig4a's low end and up to figS1/figS2 (1.5e-3 kappa).
POWER_W = (0.01e-6, 4e-6)
TEMPERATURE_K = (0.0, 5e-3)
R_RANGE = (0.0, 2.5)
GAMMA_OVER_KAPPA = (1.5e-5, 1.5e-3)

N_R_SWEEPS = 4
R_POINTS = 51
PARAM_POINTS = 25
SWEEP_AXES = ("power_w", "gamma_m_hz", "temperature_k")

TRAJECTORY_MODELS = ("reduced10", "reduced_analytic")
R_SWEEP_MODELS = ("reduced3", "reduced10")
PARAM_SWEEP_MODELS = ("reduced3", "reduced10", "full6")


@dataclass(frozen=True)
class Invocation:
    """One ``sqzmirror run`` call and where it writes.

    Fixed scenarios (no ``models``) are checked against the recorded figure
    CSVs; seeded custom runs by comparing their models with each other.
    """

    label: str
    argv: tuple[str, ...]
    out_dir: Path
    models: tuple[str, ...] = ()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_base(rng: random.Random) -> dict[str, float]:
    """Power, temperature and mirror damping inside the figures' ranges."""
    return {
        "power_w": _log_uniform(rng, *POWER_W),
        "temperature_k": rng.uniform(*TEMPERATURE_K),
        "gamma_m_hz": KAPPA_HZ * _log_uniform(rng, *GAMMA_OVER_KAPPA),
    }


def _axis_values(rng: random.Random, axis: str, n: int) -> list[float]:
    if axis == "power_w":
        values = [_log_uniform(rng, *POWER_W) for _ in range(n)]
    elif axis == "gamma_m_hz":
        values = [KAPPA_HZ * _log_uniform(rng, *GAMMA_OVER_KAPPA) for _ in range(n)]
    else:
        values = [rng.uniform(*TEMPERATURE_K) for _ in range(n)]
    return sorted(values)


def sweep_config(params: dict[str, float], axis: str, values: tuple[float, ...],
                 models: tuple[str, ...]) -> str:
    """Text of a custom steady-sweep config file (no output or jobs keys)."""
    lines = ["[scenario]", "name = custom", f"model = {', '.join(models)}",
             "phase = +1", "", "[params]"]
    lines += [f"{key} = {val!r}" for key, val in params.items()]
    lines += ["", "[sweep]", f"name = {axis}",
              "values = " + ", ".join(repr(v) for v in values), ""]
    return "\n".join(lines)


@dataclass(frozen=True)
class Run:
    """One planned run: a fixed scenario (no params) or a seeded custom run."""

    label: str
    params: dict = field(default_factory=dict)
    sweep: tuple[str, tuple[float, ...]] | None = None
    models: tuple[str, ...] = ()


def plan(workload: str, seed: int) -> list[Run]:
    """The workload's runs; a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    runs = [Run(name) for name in FIXED_SCENARIOS[workload]]
    if workload == "trajectories":
        params = draw_base(rng)
        params["r"] = rng.uniform(*R_RANGE)
        runs.append(Run("custom_trajectory", params, None, TRAJECTORY_MODELS))
    elif workload == "r_sweeps":
        step = (R_RANGE[1] - R_RANGE[0]) / (R_POINTS - 1)
        r_values = tuple(R_RANGE[0] + k * step for k in range(R_POINTS))
        for k in range(N_R_SWEEPS):
            runs.append(Run(f"custom_r_sweep_{k}", draw_base(rng), ("r", r_values),
                            R_SWEEP_MODELS))
    else:
        for axis in SWEEP_AXES:
            params = draw_base(rng)
            params["r"] = rng.uniform(*R_RANGE)
            del params[axis]
            values = tuple(_axis_values(rng, axis, PARAM_POINTS))
            runs.append(Run(f"custom_{axis}_sweep", params, (axis, values),
                            PARAM_SWEEP_MODELS))
    return runs


def build_workload(workload: str, seed: int, work_dir: Path) -> list[Invocation]:
    """Write the workload's config files under work_dir; return its invocations."""
    invocations = []
    for k, run in enumerate(plan(workload, seed)):
        out_dir = work_dir / f"{k:02d}_{run.label}"
        out_dir.mkdir(parents=True, exist_ok=True)
        if run.sweep is not None:
            cfg_path = work_dir / f"{k:02d}_{run.label}.cfg"
            cfg_path.write_text(sweep_config(run.params, *run.sweep, run.models),
                                encoding="ascii")
            argv = ["run", str(cfg_path)]
        elif run.models:
            argv = ["run", "custom"]
            for key, val in run.params.items():
                argv += ["--set", f"{key}={val!r}"]
            for model in run.models:
                argv += ["--model", model]
        else:
            argv = ["run", run.label]
        argv += ["--out", str(out_dir)]
        invocations.append(Invocation(run.label, tuple(argv), out_dir, run.models))
    return invocations
