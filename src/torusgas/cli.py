"""Command-line entry point for the experiment runners.

Each subcommand names an experiment; a JSON config may override the
defaults, and the common flags select the output directory, the base
seed, and the pool workers of the inequality sweeps.  The process exits 0
when the experiment's verdict is a pass, 1 when it is a fail, and 2 with a
one-line message on stderr when the config, the solver or the report
output fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import lab
from .solver import SolverError

_SUBCOMMANDS = {name.replace("_", "-"): name for name in lab.EXPERIMENTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusgas",
        description=(
            "Numerical laboratory for a periodic compressible gas flow: "
            "scaling studies and the nonuniform-dependence experiment."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH", help="JSON file with experiment parameters"
    )
    common.add_argument(
        "--out", metavar="DIR", help="directory for the CSV and summary.json"
    )
    common.add_argument("--seed", type=int, help="base seed for random families")
    common.add_argument(
        "--threads",
        type=int,
        help="pool workers over the four inequality checks, unused by the other "
        "experiments; artifacts do not depend on it",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, name in _SUBCOMMANDS.items():
        subparsers.add_parser(
            command, parents=[common], help=lab.EXPERIMENTS[name].help
        )
    return parser


def _load_config(args: argparse.Namespace) -> lab.ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    cfg = lab.config_from_dict(data, _SUBCOMMANDS[args.command])
    flags = {"output_dir": args.out, "seed": args.seed, "threads": args.threads}
    return replace(cfg, **{name: v for name, v in flags.items() if v is not None})


def main(argv: list[str] | None = None) -> int:
    """Run one experiment; exit 0 on PASS, 1 on FAIL, 2 on a usage or run error."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        report = lab.run_experiment(cfg)
    except (OSError, ValueError, SolverError) as err:
        print(f"torusgas {args.command}: error: {err}", file=sys.stderr)
        return 2
    summary = report.summary()
    verdict = "PASS" if summary["pass"] else "FAIL"
    line = f"{summary['experiment']}: {verdict}"
    if "fitted_slope" in summary:
        line += (
            f" (fitted slope {summary['fitted_slope']:+.4f}, "
            f"predicted {summary['predicted_slope']:+.4f})"
        )
    print(line)
    if cfg.output_dir is not None:
        print(f"reports written to {cfg.output_dir}")
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
