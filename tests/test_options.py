"""Every option of the package, listed: a parameter or dataclass field with a
default, an environment variable that src/ reads and a flag of the CLI. A
new knob, or a removed one, shows up here as a one-line diff."""

import argparse
import ast
from pathlib import Path

from sqzmirror import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "sqzmirror"

OPTIONS = [
    "cli.main(argv=None)",
    "dynamics.TimeGrid(sample_stride=1)",
    "errors.DivergenceError.__init__(last_valid_time=None)",
    "full.compare_adiabatic(phase=1.0)",
    "full.steady_full(phase=1.0)",
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

# every read of the process environment in src/, as "module: source"
ENVIRONMENT = []

# every argument of cli._build_parser(), with its default
FLAGS = [
    "sqzmirror run --model(default=[])",
    "sqzmirror run --out(default=None)",
    "sqzmirror run --phase(default=None)",
    "sqzmirror run --set(default=[])",
    "sqzmirror run scenario(default=None)",
]

_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


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


def environment_reads() -> list[str]:
    """Each os.environ or os.getenv in src/, or a name imported as one, with
    the attribute, call or subscript around it: "module: source"."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in _ENVIRONMENT_NAMES:
                while isinstance(parents.get(node), (ast.Attribute, ast.Call, ast.Subscript)):
                    node = parents[node]
                found.append(f"{path.stem}: {ast.unparse(node)}")
    return sorted(found)


def cli_flags() -> list[str]:
    """Every argument of the CLI's parser, subcommands walked, help left out."""
    found = []

    def walk(parser: argparse.ArgumentParser, prefix: str) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{prefix} {name}")
            elif not isinstance(action, argparse._HelpAction):
                flag = "/".join(action.option_strings) or action.dest
                found.append(f"{prefix} {flag}(default={action.default!r})")

    walk(cli._build_parser(), "sqzmirror")
    return sorted(found)


def test_environment_reads_are_pinned():
    assert environment_reads() == sorted(ENVIRONMENT)


def test_cli_flags_are_pinned():
    assert cli_flags() == sorted(FLAGS)
