"""Command-line interface.

    kswave simulate <cfg> [--out DIR] [--snapshot-times t1,t2,...] [--allow-unstable]
    kswave eig      <cfg> [--out DIR]
    kswave regime   <cfg> [--out DIR]
    kswave verify   <cfg> [--out DIR]
    kswave sweep    <cfg> [--out DIR] [--workers N]

Exit codes: 0 success, 1 validation error, 2 numerical fault.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .envelopes import EnvelopeError
from .fixedpoint import SandwichError
from .harness import (MODES, ConfigError, config_help, fmt, parse_config,
                      run_experiment)
from .ignition import BracketError
from .stepper import BlowUpError


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
                       help="output directory (default: out/<config stem>)")
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

    out_dir = args.out if args.out is not None else Path("out") / args.config.stem
    try:
        result = run_experiment(spec, out_dir,
                                workers=getattr(args, "workers", 1))
    except (BlowUpError, BracketError, EnvelopeError, SandwichError) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.mode == "simulate":
        line = f"outcome: {result.tag.value}"
        if result.plateau is not None:
            line += f", plateau u(T, L) = {fmt(result.plateau)}"
        if result.peak is not None:
            line += (f", peak max u(T) = {fmt(result.peak[0])} "
                     f"at x = {fmt(result.peak[1])}")
        print(line)
        print(f"artifacts in {out_dir}")
    elif args.mode == "eig":
        print(f"lambda_inf estimate: {fmt(result.estimate)} "
              f"(upper bound {fmt(result.upper_bound)}, "
              f"{'converged' if result.converged else 'not converged'})")
        for L, h, lam in result.table:
            print(f"  L = {fmt(L)}, h = {fmt(h)}: lambda = {fmt(lam)}")
    elif args.mode == "regime":
        thr = "undefined" if result.h1_threshold is None else fmt(result.h1_threshold)
        print(f"h1_holds: {result.h1_holds} (speed threshold {thr})")
        print(f"h2_damping_holds: {result.h2_damping_holds}")
        print(f"c_star: {fmt(result.c_star)}")
        print(f"lambda_inf: {fmt(result.lambda_inf)}")
    elif args.mode == "verify":
        report, waves = result
        status = "pass" if report.ok else "FAIL"
        hyp = "" if report.hypothesis_satisfied else " (damping hypothesis violated)"
        print(f"certification {status}{hyp}: worst residual "
              f"{fmt(report.worst.worst_residual)} on branch "
              f"{report.worst.branch}")
        for w in waves:
            print(f"  ignition eps = {fmt(w.epsilon)}: speed {fmt(w.speed)} "
                  f"< bound {fmt(w.speed_bound)}")
    elif args.mode == "sweep":
        n_err = sum(r["outcome"] == "error" for r in result)
        print(f"sweep: {len(result)} points, {n_err} errors "
              f"-> {out_dir / 'regime_map.csv'}")
        return 2 if n_err else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
