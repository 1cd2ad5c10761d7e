"""Command-line interface.

    kswave simulate <cfg> [--out DIR] [--snapshot-times t1,t2,...] [--allow-unstable]
    kswave eig      <cfg> [--out DIR]
    kswave regime   <cfg> [--out DIR]
    kswave verify   <cfg> [--out DIR]
    kswave sweep    <cfg> [--out DIR] [--workers N]

Each mode writes its artifact bundle into DIR, by default out/<config stem>
for simulate and sweep and out/<config stem>_<mode> for eig, regime and
verify.  It then prints the bundle's summary artifacts (``harness.SUMMARIES``:
outcome.txt; eigenvalues.csv and lambda_infinity.txt; regime.txt;
certification.csv and ignition.csv; regime_map.csv) byte for byte, and a last
line ``artifacts in DIR``.

Exit codes: 0 success, 1 validation error or unwritable --out, 2 numerical
fault (any RuntimeError: a blow-up, a failed bracket or envelope, a LAPACK
failure or a refused eigenvalue doubling; also a sweep with an ``error`` row).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .harness import (MODES, SUMMARIES, ConfigError, config_help,
                      parse_config, run_experiment)


def _default_out(stem: str, mode: str) -> Path:
    """out/<stem> for simulate and sweep, out/<stem>_<mode> for the analysis
    modes, so a verify run never overwrites its config's simulate bundle."""
    return Path("out") / (stem if mode in ("simulate", "sweep")
                          else f"{stem}_{mode}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kswave",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Forced-wave simulator and verification toolkit for a "
                    "1-D chemotaxis system\nin a shifting habitat.",
        epilog="config keys (key = value; the subcommand sets the mode; bc "
               "case1 is Dirichlet\nat -L and zero flux at L, case2 is "
               "Dirichlet at both ends; simulate and sweep\nneed exactly "
               "one of u0 and u0_bump):\n" + config_help())
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: "
                            f"{_default_out('<config stem>', mode)})")
        if mode == "simulate":
            p.add_argument("--snapshot-times", default=None,
                           help="comma-separated times overriding the config")
            p.add_argument("--allow-unstable", action="store_const",
                           const="true")
        if mode == "sweep":
            p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s: %(message)s")
    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    # the simulate flags are raw config values, parsed like file lines; a
    # given flag wins even when empty (--snapshot-times "" clears the key)
    overrides = {key: raw for key in ("snapshot_times", "allow_unstable")
                 if (raw := getattr(args, key, None)) is not None}
    try:
        spec = parse_config(text, mode=args.mode, overrides=overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out if args.out is not None \
        else _default_out(args.config.stem, args.mode)
    try:
        result = run_experiment(spec, out_dir,
                                workers=getattr(args, "workers", 1))
    except RuntimeError as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:          # say, --out names an existing file
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1

    # each summary artifact is the result's one text form: print it as written
    for name in SUMMARIES[args.mode]:
        sys.stdout.write((out_dir / name).read_text())
    print(f"artifacts in {out_dir}")
    if args.mode == "sweep" and any(r["outcome"] == "error" for r in result):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
