"""Command-line front end.

Subcommands: bounds, diag, gi, bench, sample.  Each takes a JSON config
mirroring CampaignConfig plus optional seed/output overrides.  Exit codes:
0 on success, 1 on usage, configuration and output errors, 2 when some grid
points failed (their rows carry the error text).  ``--threads`` is
checked (at least 1) and otherwise ignored: trials always run serially.
"""

import argparse
import json
import sys
from dataclasses import replace

from . import bench
from ._version import __version__


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qpe-bounds",
        description="Cost bounds and estimator benchmarks for phase estimation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bounds", "tabulate gamma/g0 over the spectrum sweep"),
        ("diag", "tabulate the diagonal-approximation quality factor"),
        ("gi", "tabulate normalized information g0"),
        ("bench", "run the sampling benchmark and score R"),
        ("sample", "emit raw sample CSVs"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON campaign config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility, at least 1; "
                            "trials always run serially")
    return parser


def _load_config(args):
    with open(args.config) as fh:
        config = bench.CampaignConfig.from_dict(json.load(fh))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.threads < 1:
        raise ValueError("threads must be at least 1")
    return config


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 1: 2 means failed grid points
        if exc.code == 0:  # --help, --version
            raise
        return 1
    try:
        config = _load_config(args)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out = args.out or f"{args.command}.csv"
    try:
        if args.command == "bench":
            rows = bench.run_campaign(config)
        elif args.command == "bounds":
            rows, crossover = bench.sweep_bounds(config)
            if crossover is not None:
                print(f"crossover c0 = {crossover!r}")
        elif args.command == "diag":
            rows = bench.check_diag(config)
        elif args.command == "gi":
            rows = bench.gi_sweep(config)
        elif args.command == "sample":
            for path in bench.emit_samples(config, out):
                print(path)
            return 0
        else:  # pragma: no cover - argparse enforces the choices
            return 1
        bench.write_rows_csv(rows, out, config.seed, bench.COLUMNS.get(args.command))
    except (ValueError, OverflowError, MemoryError) as exc:  # also a size past the machine
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 2 if any(row.error for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
