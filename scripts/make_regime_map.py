#!/usr/bin/env python3
"""Produce the shift-speed regime map across the extinction threshold.

Runs the shipped sweep config (11 points, T = 140 each, marched as one
block; about half a minute) and prints the classified transition.  Pass
--workers N to split the points into N blocks, one per worker process.
"""

import argparse
import sys
from pathlib import Path

from kswave.harness import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    spec = parse_config((ROOT / "experiments" / "sweep_case1_c.cfg").read_text())
    out_dir = ROOT / "out" / "sweep_case1_c"
    rows = run_experiment(spec, out_dir, workers=args.workers)
    extinct = [r["c"] for r in rows if r["outcome"] == "extinction"]
    alive = [r["c"] for r in rows if r["outcome"] not in ("extinction",
                                                          "error", "skipped")]
    for r in rows:
        print(f"c = {r['c']:+.2f}: {r['outcome']}")
    if extinct and alive:
        print(f"transition between c = {max(extinct)} and c = {min(alive)} "
              f"(theory: -2 sqrt(r*) = -6.3246)")
    print(f"regime map written to {out_dir / 'regime_map.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
