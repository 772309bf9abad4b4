"""Every option of the package, listed: a parameter or dataclass field with a
default. A new knob, or a removed one, shows up here as a one-line diff."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sqzmirror"

OPTIONS = [
    "cli.main(argv=None)",
    "dynamics.TimeGrid(sample_stride=1)",
    "errors.DivergenceError.__init__(last_valid_time=None)",
    "full.compare_adiabatic(phase=1.0)",
    "full.steady_full(phase=1.0)",
    "gaussian.thermal(n_modes=None)",
    "generator.GeneratorSpec(delta=0.0)",
    "generator.GeneratorSpec(dissipators=field(default_factory=list))",
    "generator.GeneratorSpec.add_dissipator(harmonic=0)",
    "reduced.optimal_squeezing(phase=1.0)",
    "reduced.steady_curve(phase=1.0)",
    "reduced.steady_state(phase=1.0)",
    "scenarios.ScenarioConfig(models=field(default_factory=list))",
    "scenarios.ScenarioConfig(n_samples=800)",
    "scenarios.ScenarioConfig(output_dir='out')",
    "scenarios.ScenarioConfig(params_hz=field(default_factory=dict))",
    "scenarios.ScenarioConfig(phase='+1')",
    "scenarios.ScenarioConfig(sweep=None)",
    "scenarios.ScenarioConfig(t_end_s=None)",
    "scenarios._parse_number(integer=False)",
    "scenarios._trajectory_curves(damping_times=10.0)",
]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _options(node: ast.AST, prefix: str) -> list[str]:
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            args = child.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):],
                             args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            found += [f"{name}({a.arg}={ast.unparse(d)})" for a, d in pairs]
            found += _options(child, name)
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
            if _is_dataclass(child):
                found += [f"{name}({f.target.id}={ast.unparse(f.value)})"
                          for f in child.body
                          if isinstance(f, ast.AnnAssign) and f.value is not None]
            found += _options(child, name)
        else:
            found += _options(child, prefix)
    return found


def package_options() -> list[str]:
    return sorted(option for path in sorted(SRC.glob("*.py"))
                  for option in _options(ast.parse(path.read_text()), path.stem))


def test_option_list_is_pinned():
    found = package_options()
    added = sorted(set(found) - set(OPTIONS))
    removed = sorted(set(OPTIONS) - set(found))
    assert found == sorted(OPTIONS), (
        f"options added: {added or 'none'}; options removed: {removed or 'none'}")
