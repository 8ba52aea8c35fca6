"""Command-line front end: thin argument handling over the scenario runners.

Exit codes: 0 all assertions pass, 2 an inequality or runtime assertion
was violated, 3 configuration error (a malformed config file or command
line).
"""

from __future__ import annotations

import argparse
import sys

from .scenarios import (
    ConfigError,
    ScenarioConfig,
    parse_config,
    run_bloom_comparability,
    run_characteristics,
    run_counterexample,
    run_domination,
    run_norms,
)


class _Parser(argparse.ArgumentParser):
    """A command-line usage error is a configuration error (exit 3), not
    argparse's exit 2, which here means a violated inequality."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="scenario config file (flat key = value with [sections])")
    sub.add_argument("--seed", type=lambda s: int(s, 0), help="override the scenario seed")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--depth", type=int, help="override the finest level")
    sub.add_argument("--dim", type=int, help="override the dimension")


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read(), cfg)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.depth is not None:
        overrides["depth"] = args.depth
    if args.dim is not None:
        overrides["dim"] = args.dim
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def main(argv=None) -> int:
    parser = _Parser(prog="dyadlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("char", "weight characteristics and the power-window sweep"),
        ("dominate", "randomized sparse-domination battery"),
        ("bloom", "two-sided operator-norm vs b-functional comparison"),
        ("counterexample", "multiplier-condition discrepancy depth sweep"),
        ("norms", "all scalar functionals for one configuration"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "char":
            sub.add_argument("--no-sweep", action="store_true", help="skip the power-window sweep")
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    try:
        if args.command == "char":
            report = run_characteristics(cfg, sweep=not args.no_sweep)
        elif args.command == "dominate":
            report = run_domination(cfg)
            if not report["passed"]:
                print("domination battery FAILED", file=sys.stderr)
                return 2
        elif args.command == "bloom":
            report = run_bloom_comparability(cfg)
        elif args.command == "counterexample":
            report = run_counterexample(cfg)
        else:
            report = run_norms(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"assertion violated: {exc}", file=sys.stderr)
        return 2

    print(f"wrote report for '{args.command}' to {cfg.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
