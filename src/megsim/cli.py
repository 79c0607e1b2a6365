"""Command-line entry point.

Subcommands: train, sweep, power, table, eval. Global flags mirror the
MEGSIM_* environment variables (--config/MEGSIM_CONFIG, --out/MEGSIM_OUT,
--seed/MEGSIM_SEED, --jobs/MEGSIM_JOBS, --preset/MEGSIM_PRESET); explicit
flags win. --jobs is accepted; sweeps run in one process.
"""

import argparse
import sys

from . import experiments
from .config import PRESETS, config_hash, load_config
from .errors import BundleError, ConfigError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="megsim",
        description="edge-assisted image generation link simulator")
    parser.add_argument("--config", metavar="PATH",
                        help="key-value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="master seed")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="accepted; sweeps run in one process")
    parser.add_argument("--preset", choices=PRESETS,
                        help="configuration preset")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="train and cache the model bundle")
    sub.add_parser("sweep", help="quality vs SNR grid over all modes")
    sub.add_parser("power", help="train and score the power allocator")
    sub.add_parser("table", help="overhead and complexity arithmetic")
    sub.add_parser("eval", help="one end-to-end generation report")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.preset, {
            "out": args.out, "seed": args.seed, "jobs": args.jobs})
    except (OSError, ValueError) as exc:
        print(f"megsim: error: {exc}", file=sys.stderr)
        return 2
    print(f"config hash {config_hash(cfg)} (preset {cfg.preset})")
    try:
        if args.command == "train":
            result = experiments.cmd_train(cfg)
            for name, action in sorted(result.actions.items()):
                print(f"  {name}: {action}")
            print(f"bundle at {result.bundle_dir}")
        elif args.command == "sweep":
            result = experiments.cmd_sweep(cfg)
            print(f"wrote {result['sweep_csv']} "
                  f"and {len(result['plots'])} plot files")
        elif args.command == "power":
            result = experiments.cmd_power(cfg)
            print(f"wrote {result['summary_csv']}")
            for row in result["rows"]:
                print(f"  p_max={row[0]:g} uniform fid={row[1]:.4f} "
                      f"drl fid={row[2]:.4f} (n={row[4]})")
        elif args.command == "table":
            print(experiments.cmd_table(cfg).text)
        elif args.command == "eval":
            result = experiments.cmd_eval(cfg)
            for (_, mode), gen in result["report"].results.items():
                r = gen.report
                print(f"  {mode:<12} psnr={r.psnr_db:.2f} dB "
                      f"fid_proxy={r.fid_score:.4f} symbols={r.symbols}")
            print(f"wrote {result['eval_csv']}")
    except (BundleError, ConfigError, FileNotFoundError) as exc:
        print(f"megsim: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
