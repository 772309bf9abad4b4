"""Span tracing of the sqzmirror layers from outside the package.

The package binds its public functions by name (``from .reduced import
build_system``), so a function is traced by rebinding that name, in every
module that holds it, to a wrapper that records a span. Nothing in the
package changes; leaving the ``Tracer`` context restores every binding.

A span is (id, parent id, run id, name, start, end, info). The run id is the
id of the root span, one per ``sqzmirror run`` invocation. Spans stay in
memory; ``layer_metrics`` turns a list of them into per-layer counts and
self times, where self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import importlib
import statistics
import time
from pathlib import Path

PACKAGE = "sqzmirror"
MODULES = ("", "cli", "scenarios", "reduced", "full", "generator", "dynamics",
           "gaussian", "params")

# Single Gaussian operations are traced only where the models call them, not
# inside gaussian.py itself (quadrature_observables uses them internally).
SINGLE_OPS = ("gaussian.rotation_angle", "gaussian.rotate_local",
              "gaussian.log_negativity", "gaussian.symplectic_eigenvalues")
SINGLE_OPS_CALLERS = ("reduced", "full")

TRACED = (
    "cli.main",
    "scenarios.run", "scenarios.parse_config_file", "scenarios.write_csv",
    "scenarios.write_manifest",
    "reduced.build_system", "reduced.steady_state", "reduced.optimal_squeezing",
    "reduced.criterion", "reduced.evolve", "reduced.evolve_analytic",
    "reduced.evolve_full10",
    "full.steady_full", "full.evolve_full", "full.compare_adiabatic",
    "generator.compile_generator", "generator.reduced_generator",
    "generator.full_generator",
    "params.derive",
    "dynamics.integrate_linear", "dynamics.integrate", "dynamics.linear_steady",
    "dynamics.periodic_steady_state", "dynamics.minimize_scalar",
    "dynamics.expm_action",
    "gaussian.quadrature_observables",
) + SINGLE_OPS

MARK = "_perfbench_span"


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}" if name else PACKAGE)


class Tracer:
    """Context manager that records spans around the TRACED functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [_module(m) for m in MODULES]
        try:
            for target in TRACED:
                mod_name, fn_name = target.split(".")
                original = getattr(_module(mod_name), fn_name)
                scope = ([_module(m) for m in SINGLE_OPS_CALLERS]
                         if target in SINGLE_OPS else modules)
                wrapper = self._wrap(target, original)
                for module in scope:
                    names = [k for k, v in vars(module).items() if v is original]
                    for name in names:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter
        count_evals = name == "dynamics.minimize_scalar"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            span = [sid, parent[0] if parent else None,
                    parent[2] if parent else sid, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            if count_evals:
                args, evals = _counting_objective(args)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            span[6] = evals[0] if count_evals else _info(name, args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper


def _counting_objective(args: tuple) -> tuple[tuple, list[int]]:
    evals = [0]
    f = args[0]

    def counted(x):
        evals[0] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), evals


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _info(name: str, args: tuple, kwargs: dict, result):
    """Per-call work counts, taken from the arguments and the result."""
    if name == "reduced.build_system":
        return _arg(args, kwargs, 0, "params").with_(r=0.0)
    if name == "dynamics.integrate_linear":
        return (_arg(args, kwargs, 2, "grid").n_steps, len(result[0]))
    if name == "dynamics.linear_steady":
        return _arg(args, kwargs, 0, "ode").drift.shape[0]
    if name == "dynamics.periodic_steady_state":
        return _arg(args, kwargs, 0, "eqs").drift.shape[0] ** 2
    if name == "scenarios.write_csv":
        header, rows = _arg(args, kwargs, 1, "header"), _arg(args, kwargs, 2, "rows")
        err = header.index("error") if "error" in header else None
        errors = 0 if err is None else sum(1 for row in rows if row[err])
        return (len(rows), errors, Path(_arg(args, kwargs, 0, "path")).stat().st_size)
    return None


def wrapped_bindings() -> list[str]:
    """Every package binding that is still a tracing wrapper (should be none)."""
    return [f"{module.__name__}.{name}"
            for module in map(_module, MODULES)
            for name, value in vars(module).items() if hasattr(value, MARK)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one pass's spans."""
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    for _sid, parent, _run, name, t0, t1, _extra in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    own: dict[str, float] = {}
    info: dict[str, list] = {}
    for sid, _parent, _run, name, t0, t1, extra in spans:
        own[name] = own.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
        info.setdefault(name, []).append(extra)

    def n(*names: str) -> int:
        return sum(len(info.get(x, ())) for x in names)

    def self_s(*names: str) -> float:
        return sum(own.get(x, 0.0) for x in names)

    root = total.get("cli.main", 0.0)
    qo = "gaussian.quadrature_observables"
    bs = "reduced.build_system"
    resolvent = ("dynamics.linear_steady", "dynamics.periodic_steady_state")
    integ = info.get("dynamics.integrate_linear", [])
    csv = info.get("scenarios.write_csv", [])
    return {
        f"{qo}.calls": n(qo),
        f"{qo}.self_s": self_s(qo),
        f"{qo}.us_per_call": 1e6 * self_s(qo) / n(qo) if n(qo) else 0.0,
        f"{qo}.share": total.get(qo, 0.0) / root if root else 0.0,
        "gaussian.single_ops.calls": n(*SINGLE_OPS),
        "gaussian.single_ops.self_s": self_s(*SINGLE_OPS),
        f"{bs}.calls": n(bs),
        f"{bs}.self_s": self_s(bs),
        f"{bs}.distinct_ratio": len(set(info.get(bs, []))) / n(bs) if n(bs) else 0.0,
        f"{bs}.share": total.get(bs, 0.0) / root if root else 0.0,
        "reduced.steady_state.calls": n("reduced.steady_state"),
        "reduced.steady_state.self_s": self_s("reduced.steady_state"),
        "reduced.optimal_squeezing.calls": n("reduced.optimal_squeezing"),
        "reduced.optimal_squeezing.self_s": self_s("reduced.optimal_squeezing"),
        "reduced.criterion.self_s": self_s("reduced.criterion"),
        "reduced.evolve.self_s": self_s("reduced.evolve", "reduced.evolve_analytic",
                                        "reduced.evolve_full10"),
        "generator.compile_generator.calls": n("generator.compile_generator"),
        "generator.compile_generator.self_s": self_s("generator.compile_generator"),
        "generator.model_build.calls": n("generator.reduced_generator",
                                         "generator.full_generator"),
        "generator.model_build.self_s": self_s("generator.reduced_generator",
                                               "generator.full_generator"),
        "params.derive.calls": n("params.derive"),
        "params.derive.self_s": self_s("params.derive"),
        "dynamics.integrate_linear.calls": n("dynamics.integrate_linear"),
        "dynamics.integrate_linear.self_s": self_s("dynamics.integrate_linear"),
        "dynamics.integrate.self_s": self_s("dynamics.integrate"),
        "dynamics.rk4_steps": sum(steps for steps, _ in integ),
        "dynamics.samples": sum(samples for _, samples in integ),
        "dynamics.resolvent.calls": n(*resolvent),
        "dynamics.resolvent.self_s": self_s(*resolvent),
        "dynamics.resolvent.unknowns": sum(
            u for x in resolvent for u in info.get(x, [])),
        "dynamics.minimize_scalar.calls": n("dynamics.minimize_scalar"),
        "dynamics.minimize_scalar.evals": sum(info.get("dynamics.minimize_scalar", [])),
        "dynamics.minimize_scalar.self_s": self_s("dynamics.minimize_scalar"),
        "dynamics.expm_action.calls": n("dynamics.expm_action"),
        "dynamics.expm_action.self_s": self_s("dynamics.expm_action"),
        "full.steady_full.calls": n("full.steady_full"),
        "full.steady_full.self_s": self_s("full.steady_full"),
        "full.evolve_full.self_s": self_s("full.evolve_full"),
        "full.compare_adiabatic.self_s": self_s("full.compare_adiabatic"),
        "scenarios.run.self_s": self_s("scenarios.run"),
        "scenarios.write_csv.calls": n("scenarios.write_csv"),
        "scenarios.write_csv.self_s": self_s("scenarios.write_csv"),
        "scenarios.write_csv.bytes": sum(size for _, _, size in csv),
        "scenarios.write_manifest.self_s": self_s("scenarios.write_manifest"),
        "scenarios.parse_config_file.self_s": self_s("scenarios.parse_config_file"),
        "scenarios.rows": sum(rows for rows, _, _ in csv),
        "scenarios.error_rows": sum(errors for _, errors, _ in csv),
        "cli.main.self_s": self_s("cli.main"),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes (counts repeat exactly)."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
