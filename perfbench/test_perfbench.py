"""Tests of the benchmark's own machinery: seeded inputs, checks, tracing."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
from sqzmirror import cli  # noqa: E402
from sqzmirror.scenarios import parse_config_file  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_configs(workload, tmp_path):
    for d in ("a", "b"):
        inputs.build_workload(workload, 7, tmp_path / d)
    texts = [sorted(p.read_text() for p in (tmp_path / d).glob("*.cfg")) for d in "ab"]
    assert texts[0] == texts[1]
    assert inputs.plan(workload, 7) == inputs.plan(workload, 7)
    assert inputs.plan(workload, 7) != inputs.plan(workload, 8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_drawn_points_stay_in_figure_ranges(workload):
    for seed in range(20):
        for run in inputs.plan(workload, seed):
            points = [run.params]
            if run.sweep is not None:
                axis, values = run.sweep
                points = [{**run.params, axis: v} for v in values]
            for point in points:
                assert "delta_hz" not in point
                lo, hi = inputs.POWER_W
                assert lo <= point.get("power_w", lo) <= hi
                lo, hi = inputs.TEMPERATURE_K
                assert lo <= point.get("temperature_k", lo) <= hi
                lo, hi = inputs.R_RANGE
                assert lo <= point.get("r", lo) <= hi
                lo, hi = inputs.GAMMA_OVER_KAPPA
                assert lo <= point.get("gamma_m_hz", lo * inputs.KAPPA_HZ) / inputs.KAPPA_HZ <= hi


def test_sweep_configs_parse_without_jobs(tmp_path):
    invocations = inputs.build_workload("param_sweeps", 3, tmp_path)
    configs = sorted(tmp_path.glob("*.cfg"))
    assert len(configs) == len(inputs.SWEEP_AXES)
    for path in configs:
        assert "jobs" not in path.read_text()
        cfg = parse_config_file(path)
        assert cfg.models == list(inputs.PARAM_SWEEP_MODELS)
        assert cfg.sweep[0] in inputs.SWEEP_AXES
    assert sum(1 for inv in invocations if inv.models) == len(configs)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, [Path(p) for p in out.getvalue().split("\n") if p]


def test_traced_run_restores_every_binding(tmp_path):
    modules = [tracer._module(m) for m in tracer.MODULES]
    before = [dict(vars(m)) for m in modules]
    with tracer.Tracer() as trace:
        code, _ = _run(["run", "fig4a", "--out", str(tmp_path)])
    assert code == 0
    assert tracer.wrapped_bindings() == []
    for module, snapshot in zip(modules, before):
        now = vars(module)
        assert all(now[k] is v for k, v in snapshot.items()), module.__name__
    metrics = tracer.layer_metrics(trace.spans)
    assert metrics["full.steady_full.calls"] == 25
    assert metrics["reduced.build_system.distinct_ratio"] == 1.0
    assert metrics["scenarios.rows"] == 25
    roots = [s for s in trace.spans if s[1] is None]
    assert [s[3] for s in roots] == ["cli.main"]
    assert all(s[2] == roots[0][0] for s in trace.spans)
    assert all(v >= 0.0 for k, v in metrics.items() if k.endswith(".self_s"))


def test_check_flags_a_changed_value(tmp_path):
    reference = verify.load_reference()
    code, written = _run(["run", "fig4a", "--out", str(tmp_path)])
    assert code == 0
    assert verify.check_run("fig4a", (), written, reference).ok
    csv = next(p for p in written if p.suffix == ".csv")
    lines = csv.read_text().split("\n")
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-5))
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines))
    check = verify.check_run("fig4a", (), written, reference)
    assert not check.ok and "dP2_full[4]" in check.problems[0]


def test_calibration_kernel_is_fixed_and_runs_no_package_code():
    with tracer.Tracer() as trace:
        first = calibrate.kernel()
    assert trace.spans == []
    assert calibrate.kernel() == first
    assert calibrate.timed() > 0.0
