"""Command line entry point.

Exit codes: 0 success, 1 analysis failure (structured, expected),
2 config or IO error.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .errors import ConfigError, McergoError
from .harness import RUNNERS, load_config


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcergo",
        description="geometric ergodicity certificates via drift and hitting times",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__.splitlines()[0])
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: config output_path)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        # the runner refuses a config of another experiment, before it makes --out
        result = RUNNERS[args.command](cfg, out_dir=args.out, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except McergoError as exc:
        print(f"analysis failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if not result.get("ok", True):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
