"""Command-line entry point: `rbshare run <config>` and `rbshare compare <dirs>`."""

from __future__ import annotations

import argparse
import sys

from rbshare import harness
from rbshare.agent import TrainingDiverged
from rbshare.harness import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rbshare")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment")
    run_p.add_argument("config", help="config file (flat key = value)")
    run_p.add_argument("--seed", type=int, help="override run.seed")
    run_p.add_argument("--out", help="artifact output directory")
    run_p.add_argument("--policy", choices=harness.POLICIES)
    run_p.add_argument("--episodes", type=int)
    run_p.add_argument("--rate", choices=("low", "high"))
    run_p.add_argument("--continuity", type=int, metavar="C")
    run_p.add_argument("--buffer", type=int, metavar="L")

    cmp_p = sub.add_parser("compare", help="tabulate metrics across run artifacts")
    cmp_p.add_argument("dirs", nargs="+", help="artifact directories")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = harness.load_config(args.config)
            if args.seed is not None:
                config.seed = args.seed
            if args.policy is not None:
                config.policy = args.policy
            if args.episodes is not None:
                config.episodes = args.episodes
            if args.rate is not None:
                config.rate = args.rate
            if args.continuity is not None:
                config.continuity_len = args.continuity
            if args.buffer is not None:
                config.buffer_len = args.buffer
            config.validate()
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
