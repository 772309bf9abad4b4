"""Command-line entry point.

    sqzmirror run <scenario|config-file> [--set key=value ...] [--model M]
                  [--phase {+1,-1,average}] [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 numeric instability,
4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    DivergenceError,
    SimulationError,
    StabilityError,
    StepSizeError,
)
from .scenarios import (
    MODELS,
    PARAM_KEYS,
    PHASES,
    SCENARIOS,
    ScenarioConfig,
    parse_config_file,
    run,
    set_field,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_INTERNAL = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged (the
    append actions copy their list defaults before appending)."""
    parser = argparse.ArgumentParser(
        prog="sqzmirror",
        description="Reproduce squeezed-reservoir mirror-entanglement scenarios as CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario or replay a manifest/config file")
    runp.add_argument(
        "scenario",
        help=f"one of {', '.join(SCENARIOS)}, or a path to a config/manifest file",
    )
    runp.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=f"override a parameter ({', '.join(PARAM_KEYS)}) "
             "or t_end_s / n_samples",
    )
    runp.add_argument("--model", action="append", default=[],
                      help=f"model(s) to run: {', '.join(MODELS)}")
    runp.add_argument("--phase", choices=PHASES, default=None,
                      help="steady-state reservoir phase e^{2i delta t}")
    runp.add_argument("--out", default=None, help="output directory")
    return parser


def _apply_overrides(cfg: ScenarioConfig, pairs: list[str]) -> None:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        key = key.strip()
        set_field(cfg, key, value, f"--set {key}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.scenario in SCENARIOS:
            cfg = ScenarioConfig(scenario=args.scenario)
        elif Path(args.scenario).is_file():
            cfg = parse_config_file(args.scenario)
        else:
            raise ConfigError(
                f"unknown scenario {args.scenario!r} and no such config file"
            )
        _apply_overrides(cfg, args.overrides)
        if args.model:
            cfg.models = list(args.model)
        if args.phase is not None:
            cfg.phase = args.phase
        if args.out is not None:
            cfg.output_dir = args.out
        written = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StabilityError, DivergenceError, StepSizeError) as exc:
        print(f"numeric instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except SimulationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
