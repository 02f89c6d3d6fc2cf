"""Command-line entry point: `rbshare run <config>` and `rbshare compare <dirs>`."""

from __future__ import annotations

import argparse
import sys

from rbshare import harness
from rbshare.agent import TrainingDiverged
from rbshare.harness import ConfigError

# `rbshare run` flag -> the config key it sets (parsed and checked as in a file)
_FLAGS = {"--seed": "run.seed", "--policy": "run.policy", "--episodes": "run.episodes",
          "--rate": "traffic.rate", "--continuity": "env.continuity_len",
          "--buffer": "env.buffer_len"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rbshare")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment")
    run_p.add_argument("config", help="config file (flat key = value)")
    run_p.add_argument("--out", help="artifact output directory")
    for flag, key in _FLAGS.items():
        run_p.add_argument(flag, dest=key, metavar="VALUE", help=f"set {key}")

    cmp_p = sub.add_parser("compare", help="tabulate metrics across run artifacts")
    cmp_p.add_argument("dirs", nargs="+", help="artifact directories")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {key: getattr(args, key) for key in _FLAGS.values()
                         if getattr(args, key) is not None}
            config = harness.load_config(args.config, overrides)
            artifacts = harness.run(config, out_dir=args.out)
            for key in ("se_licensed", "se_licensed_adjusted", "se_unlicensed",
                        "acceptance_ratio", "missed_ratio"):
                print(f"{key} = {artifacts.summary[key]:.6g}")
            if artifacts.out_dir:
                print(f"artifacts written to {artifacts.out_dir}")
        else:
            print(harness.compare(args.dirs))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print(f"error: {str(exc) or 'interrupted'}", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
